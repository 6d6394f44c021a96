"""EPnP pose solving from 2D-3D correspondences.

Object points are expressed in barycentric coordinates of 4 control
points (centroid + principal directions); the projection constraints
give a 2n x 12 linear system whose null-space basis is combined with
scale coefficients recovered from control-point distance preservation.
Near-coplanar clouds fall back to the 3-control-point planar variant.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateInputError
from .geometry import Intrinsics, Pose, project

# eigenvalue ratio below which the cloud is treated as planar
_PLANAR_EIG_RATIO = 1e-8


def umeyama(src, dst):
    """Rigid alignment (no scale): R, t with dst ~= R @ src + t.

    Rotation from the SVD of the cross-covariance with determinant
    correction, translation from the centroids.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    H = (src - mu_s).T @ (dst - mu_d)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    S = np.diag([1.0, 1.0, d])
    R = Vt.T @ S @ U.T
    t = mu_d - R @ mu_s
    return R, t


def reprojection_rmse(pose: Pose, object_points, image_points, intr: Intrinsics):
    """Root-mean-square reprojection distance in pixels."""
    proj = project(pose, intr, object_points)
    d2 = np.sum((proj - np.asarray(image_points, dtype=float)) ** 2, axis=-1)
    return float(np.sqrt(np.mean(d2)))


def _control_points(Pw):
    c0 = Pw.mean(axis=0)
    centered = Pw - c0
    cov = centered.T @ centered / len(Pw)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    if evals[-1] <= 0:
        raise DegenerateInputError("all object points coincide")
    # the centroid and the n leading principal axes, n = 2 if planar: only
    # their eigenvalues are rooted, as a planar cloud's smallest may be < 0
    n = 2 if evals[0] < _PLANAR_EIG_RATIO * evals[-1] else 3
    scales = np.sqrt(evals[:-n - 1:-1])
    return np.vstack([c0, c0 + scales[:, None] * evecs[:, :-n - 1:-1].T])  # (n + 1, 3)


def _barycentric(Pw, C):
    basis = (C[1:] - C[0]).T  # (3, nc-1)
    rhs = (Pw - C[0]).T  # (3, n)
    coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    a_rest = coef.T  # (n, nc-1)
    a0 = 1.0 - a_rest.sum(axis=1)
    return np.column_stack([a0, a_rest])  # (n, nc)


def _build_M(alphas, U, intr):
    n, nc = alphas.shape
    M = np.zeros((2 * n, 3 * nc))
    du = intr.cx - U[:, 0]
    dv = intr.cy - U[:, 1]
    for j in range(nc):
        a = alphas[:, j]
        M[0::2, 3 * j] = a * intr.fx
        M[0::2, 3 * j + 2] = a * du
        M[1::2, 3 * j + 1] = a * intr.fy
        M[1::2, 3 * j + 2] = a * dv
    return M


def _betas_from_products(y, m):
    """Extract (b1..bm) from the stacked products [b1b1, b1b2, ..]."""
    b1 = np.sqrt(abs(y[0]))
    if b1 < 1e-12:
        return None
    return np.array([b1] + [y[a] / b1 for a in range(1, m)])


def _product_rows(dv_stack, m):
    """Rows of the distance system over beta products for m basis vectors.

    dv_stack: (m, n_pairs, 3) control-point difference vectors per basis.
    Product order: (0,0), (0,1), ..., (0,m-1), (1,1), (1,2), ..., (m-1,m-1).
    """
    cols = []
    for a, b in itertools.combinations_with_replacement(range(m), 2):
        dot = np.sum(dv_stack[a] * dv_stack[b], axis=-1)
        cols.append(dot if a == b else 2.0 * dot)
    return np.column_stack(cols)


def solve_epnp(object_points, image_points, intr: Intrinsics) -> Pose:
    """Recover a pose from N >= 4 correspondences.

    Tries the 1-, 2- and 3-basis-vector scale cases and keeps the one
    with the lowest reprojection error among those whose pose puts every
    object point in front of the camera.
    """
    Pw = np.asarray(object_points, dtype=float).reshape(-1, 3)
    U = np.asarray(image_points, dtype=float).reshape(-1, 2)
    if len(Pw) != len(U):
        raise DegenerateInputError("mismatched correspondence counts")
    if len(Pw) < 4:
        raise DegenerateInputError(f"need >= 4 correspondences, got {len(Pw)}")

    C = _control_points(Pw)
    nc = len(C)
    alphas = _barycentric(Pw, C)
    M = _build_M(alphas, U, intr)
    # M is never all-zero: each alpha row sums to 1 and fx, fy > 0
    Vt = np.linalg.svd(M, full_matrices=False)[2]
    # the nc - 1 most-null right singular vectors, most-null first; scale
    # case m reads the first m of them
    W = Vt[::-1][:nc - 1].reshape(nc - 1, nc, 3)

    pairs = list(itertools.combinations(range(nc), 2))
    dw = np.array([np.linalg.norm(C[i] - C[j]) for i, j in pairs])
    dv_stack = np.stack([[w[i] - w[j] for i, j in pairs] for w in W])

    best = None
    for m in range(1, nc):
        if m == 1:
            norms = np.linalg.norm(dv_stack[0], axis=-1)
            denom = float(np.sum(norms * norms))
            if denom <= 0:
                continue
            betas = np.array([float(np.sum(norms * dw)) / denom])
        else:
            L = _product_rows(dv_stack[:m], m)
            y, *_ = np.linalg.lstsq(L, dw * dw, rcond=None)
            betas = _betas_from_products(y, m)
            if betas is None:
                continue
        Cc = np.tensordot(betas, W[:m], axes=1)  # (nc, 3)
        Pc = alphas @ Cc
        if np.mean(Pc[:, 2]) < 0:
            Pc = -Pc
        if np.any(Pc[:, 2] <= 0):
            continue
        pose = Pose(*umeyama(Pw, Pc))
        if np.any(pose.apply(Pw)[:, 2] <= 0):  # the rigid fit put a point behind the camera
            continue
        err = reprojection_rmse(pose, Pw, U, intr)
        if best is None or err < best[0]:
            best = (err, pose)

    if best is None:
        raise DegenerateInputError("no valid scale case produced a pose")
    return best[1]
