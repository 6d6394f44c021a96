"""Independent brute-force oracles for the test suite.

Deliberately naive and written without sharing code with the production
paths: dense line-scan distance minimizer, central-difference gradient
checker, exhaustive all-pairs hypothesis enumerator, dense cosine
inlier counter, greedy FPS re-verifier, a second pinhole projection and
a per-point disc splatter.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OracleResult:
    reference: float
    tolerance: float
    passed: bool
    discrepancy: float


def oracle_line_distance(p, v, k, grid_n=200_001, span=3.0):
    """Min over a dense t-grid of ||k - (p + t v)||.

    The grid brackets the projection parameter, so the scan value is an
    upper bound on the true distance within grid resolution.
    """
    assert grid_n >= 100_000
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    k = np.asarray(k, dtype=float)
    t_star = np.dot(k - p, v) / np.dot(v, v)
    ts = np.linspace(t_star - span, t_star + span, grid_n)
    pts = p[None, :] + ts[:, None] * v[None, :]
    return float(np.min(np.linalg.norm(pts - k[None, :], axis=1)))


def oracle_fd_gradient(loss, field, mask, step=1e-6):
    """Central finite differences of loss(field) per masked component."""
    field = np.asarray(field, dtype=float)
    g = np.zeros_like(field)
    it = np.argwhere(mask)
    for i, j in it:
        for c in range(field.shape[-1]):
            fp = field.copy()
            fp[i, j, c] += step
            fm = field.copy()
            fm[i, j, c] -= step
            g[i, j, c] = (loss(fp) - loss(fm)) / (2 * step)
    return g


def oracle_fd_scalar(f, x, step=1e-6):
    return (f(x + step) - f(x - step)) / (2 * step)


@dataclass
class AllPairsStats:
    hypotheses: np.ndarray  # (n, 2)
    median_distance: float  # to the true keypoint
    best_location: np.ndarray  # highest inlier count
    best_votes: int


def oracle_all_pairs_vote(field, mask, k_true, inlier_cos=0.99):
    """Exhaustive hypothesis set over every masked pixel pair."""
    mask = np.asarray(mask, dtype=bool)
    m = int(mask.sum())
    assert m <= 2000, "all-pairs budget exceeded"
    ii, jj = np.nonzero(mask)
    pts = np.stack([jj + 0.5, ii + 0.5], axis=-1).astype(float)
    dirs = np.asarray(field, dtype=float)[mask]

    hyps = []
    for a in range(m):
        for b in range(a + 1, m):
            v1, v2 = dirs[a], dirs[b]
            cr = v1[0] * v2[1] - v1[1] * v2[0]
            n1 = np.hypot(*v1)
            n2 = np.hypot(*v2)
            if n1 < 1e-8 or n2 < 1e-8 or abs(cr) < 1e-6 * n1 * n2:
                continue
            d = pts[b] - pts[a]
            t = (d[0] * v2[1] - d[1] * v2[0]) / cr
            hyps.append(pts[a] + t * v1)
    hyps = np.asarray(hyps).reshape(-1, 2)
    if len(hyps) == 0:
        return AllPairsStats(hyps, float("nan"), np.full(2, np.nan), 0)

    k_true = np.asarray(k_true, dtype=float)
    med = float(np.median(np.linalg.norm(hyps - k_true[None, :], axis=1)))

    best_votes = -1
    best_loc = hyps[0]
    nv = np.hypot(dirs[:, 0], dirs[:, 1])
    for h in hyps:
        diff = h[None, :] - pts
        dist = np.hypot(diff[:, 0], diff[:, 1])
        ok = (dist >= 0.5) & (nv >= 1e-8)
        cos = np.where(ok, (diff[:, 0] * dirs[:, 0] + diff[:, 1] * dirs[:, 1])
                       / np.where(ok, dist * nv, 1.0), -2.0)
        votes = int(np.count_nonzero(cos >= inlier_cos))
        if votes > best_votes:
            best_votes = votes
            best_loc = h
    return AllPairsStats(hyps, med, best_loc, best_votes)


def oracle_inlier_counts(hyps, field, mask, inlier_cos=0.99):
    """Per-hypothesis inlier counts from the dense cosine matrix.

    A masked pixel p with direction v votes for h when |h - p| >= 0.5,
    |v| >= 1e-8 and (h - p)·v / (|h - p| |v|) >= inlier_cos.
    """
    mask = np.asarray(mask, dtype=bool)
    ii, jj = np.nonzero(mask)
    pts = np.stack([jj + 0.5, ii + 0.5], axis=-1).astype(float)
    dirs = np.asarray(field, dtype=float)[mask]
    hyps = np.asarray(hyps, dtype=float).reshape(-1, 2)
    diff = hyps[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    nv = np.hypot(dirs[:, 0], dirs[:, 1])
    ok = (dist >= 0.5) & (nv >= 1e-8)
    cos = np.where(ok, (diff[..., 0] * dirs[:, 0] + diff[..., 1] * dirs[:, 1])
                   / np.where(ok, dist * nv, 1.0), -2.0)
    return np.count_nonzero(cos >= inlier_cos, axis=1)


def oracle_project(R, t, fx, fy, cx, cy, X):
    """Second pinhole implementation via a homogeneous 3x4 matrix."""
    K = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    P = K @ np.hstack([np.asarray(R, dtype=float), np.asarray(t, dtype=float).reshape(3, 1)])
    Xh = np.append(np.asarray(X, dtype=float), 1.0)
    uvw = P @ Xh
    return uvw[:2] / uvw[2]


def oracle_splat_mask(points, width, height, radius):
    """Pixel (i, j) is set when its centre (j + 0.5, i + 0.5) lies within
    `radius` of some point, tested one point and one pixel at a time."""
    mask = np.zeros((height, width), dtype=bool)
    r2 = radius * radius
    for px, py in np.asarray(points, dtype=float).reshape(-1, 2).tolist():
        for i in range(max(0, math.floor(py - radius) - 2),
                       min(height, math.ceil(py + radius) + 2)):
            for j in range(max(0, math.floor(px - radius) - 2),
                           min(width, math.ceil(px + radius) + 2)):
                dx = j + 0.5 - px
                dy = i + 0.5 - py
                if dx * dx + dy * dy <= r2:
                    mask[i, j] = True
    return mask


def oracle_fps_verify(points, selected):
    """Re-check the greedy max-min property of an FPS selection order."""
    points = np.asarray(points, dtype=float)
    for step in range(1, len(selected)):
        prior = points[selected[:step]]
        mind = np.min(
            np.linalg.norm(points[:, None, :] - prior[None, :, :], axis=-1), axis=1
        )
        best = np.max(mind)
        got = mind[selected[step]]
        if not np.isclose(got, best):
            return False
        # lowest-index tie break
        first = int(np.argmax(mind))
        if mind[first] == got and first != selected[step] and not np.isclose(
            mind[first], mind[selected[step]]
        ):
            return False
    return True
