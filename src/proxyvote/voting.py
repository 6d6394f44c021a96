"""RANSAC-style keypoint voting from a vector field.

Hypotheses are intersections of the direction rays of sampled pixel
pairs; each is scored by the number of masked pixels whose direction
agrees with it (cosine above a threshold). The winner is optionally
refined as the least-squares intersection of its inlier rays.

Inlier rule. A masked pixel p with direction v, |v| >= EPS_NORM, is an
inlier of hypothesis h when |d| >= 0.5 and cos(d, v) = dot / (|d| |v|)
>= thr, with d = h - p and dot = d·v. Since thr > 0, the cosine test
holds exactly when dot >= 0 and dot² >= thr²·|d|²·|v|²: both sides of
dot >= thr·|d|·|v| are then non-negative, so squaring keeps the order.
Likewise |d| >= 0.5 is |d|² >= 0.25. That holds in exact arithmetic; in
float64 the two forms can part only for a pair within rounding of the
threshold. The squared form needs no square root or division per
pixel-hypothesis pair, and it is the one test that counting, scoring the
hypotheses and refining the winner all use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSupportError, NoValidHypothesisError
from .geometry import EPS_NORM, EPS_PARALLEL


@dataclass(frozen=True)
class VotingConfig:
    num_samples: int = 512
    inlier_cos_threshold: float = 0.99
    refine: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not (0.0 < self.inlier_cos_threshold < 1.0):
            raise ValueError("inlier_cos_threshold must be in (0, 1)")


# Hypotheses scored per block, so that a block's (_BLOCK, M) scratch
# arrays stay in cache. On 700-1,800-pixel masks, blocks of 16 to 128
# time within 10-30 % of each other; 512 takes 2-2.5 times as long.
_BLOCK = 64


def _masked_pixels(field, mask):
    """Centres (j + 0.5, i + 0.5) and directions of the masked pixels, (M, 2) each.

    Row-major order, the same values as ``pixel_centers(h, w)[mask]``.
    """
    field = np.asarray(field, dtype=float)
    ii, jj = np.nonzero(np.asarray(mask, dtype=bool))
    pts = np.stack([jj + 0.5, ii + 0.5], axis=-1)
    return pts, field[ii, jj]


def _hypothesis_locations(pts, dirs, cfg: VotingConfig) -> np.ndarray:
    """(n, 2) intersections of the rays of sampled pixel pairs; deterministic per seed.

    Pairs of parallel or near-zero directions give none, so n may be 0.
    """
    m = len(pts)
    if m < 2:
        raise InsufficientSupportError(f"need >= 2 masked pixels, got {m}")
    rng = np.random.default_rng(cfg.rng_seed)
    ia = rng.integers(0, m, cfg.num_samples)
    ib = rng.integers(0, m, cfg.num_samples)
    keep = ia != ib
    p1, v1 = pts[ia[keep]], dirs[ia[keep]]
    p2, v2 = pts[ib[keep]], dirs[ib[keep]]

    cross = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
    n1 = np.hypot(v1[:, 0], v1[:, 1])
    n2 = np.hypot(v2[:, 0], v2[:, 1])
    ok = (n1 >= EPS_NORM) & (n2 >= EPS_NORM)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok &= np.abs(cross) >= EPS_PARALLEL * n1 * n2
    if not np.any(ok):
        return np.empty((0, 2))
    p1, v1, p2, v2, cross = p1[ok], v1[ok], p2[ok], v2[ok], cross[ok]
    d = p2 - p1
    t1 = (d[:, 0] * v2[:, 1] - d[:, 1] * v2[:, 0]) / cross
    return p1 + t1[:, None] * v1


def _voters(pts, dirs, threshold):
    """Pixels that can vote (|v| >= EPS_NORM): centres, directions and thr²·|v|².

    Column-major copies, so that the x and y columns the counting loop
    reads are contiguous.
    """
    ok = np.hypot(dirs[:, 0], dirs[:, 1]) >= EPS_NORM
    pts, dirs = np.asfortranarray(pts[ok]), np.asfortranarray(dirs[ok])
    vx, vy = dirs[:, 0], dirs[:, 1]
    return pts, dirs, threshold * threshold * (vx * vx + vy * vy)


def _workspace(n, m):
    """Scratch arrays for ``_inliers`` on up to n hypotheses and m voters."""
    return [np.empty((n, m)) for _ in range(4)] + [np.empty((n, m), dtype=bool) for _ in range(2)]


def _inliers(hyps, voters, work=None):
    """(n, M) bool: voter m is an inlier of hypothesis n (see module docstring).

    voters comes from ``_voters``. With d = h - p and dot = d·v, the test
    is d² >= 0.25, dot >= 0 and dot² >= thr²·d²·|v|². work holds four
    float and two bool (>= n, M) scratch arrays to compute in, so that a
    loop over blocks allocates nothing; the result is a view of work[4].
    """
    pts, dirs, weight = voters
    n = len(hyps)
    if work is None:
        work = _workspace(n, len(pts))
    dx, dy, dot, tmp, ok, cond = (a[:n] for a in work)
    np.subtract(hyps[:, :1], pts[:, 0], out=dx)
    np.subtract(hyps[:, 1:], pts[:, 1], out=dy)
    np.multiply(dx, dirs[:, 0], out=dot)
    np.multiply(dy, dirs[:, 1], out=tmp)
    dot += tmp
    dx *= dx
    dy *= dy
    dx += dy  # d²
    np.greater_equal(dx, 0.25, out=ok)
    np.greater_equal(dot, 0.0, out=cond)
    ok &= cond
    dx *= weight
    dot *= dot
    np.greater_equal(dot, dx, out=cond)
    ok &= cond
    return ok


def _vote_counts(hyps, voters) -> np.ndarray:
    """Inlier count per hypothesis, scored _BLOCK hypotheses at a time."""
    counts = np.empty(len(hyps), dtype=np.intp)
    work = _workspace(min(_BLOCK, len(hyps)), len(voters[0]))
    for s in range(0, len(hyps), _BLOCK):
        block = hyps[s:s + _BLOCK]
        counts[s:s + len(block)] = np.count_nonzero(_inliers(block, voters, work), axis=1)
    return counts


def count_inliers(h, field, mask, threshold) -> int:
    """Masked pixels whose direction points at h within the cosine threshold.

    Pixels closer than 0.5 px to h or with near-zero direction are excluded.
    The cosine rule cos(d, v) >= thr is tested in squared form (see the
    module docstring), with no square root or division.
    """
    voters = _voters(*_masked_pixels(field, mask), threshold)
    h = np.asarray(h, dtype=float).reshape(1, 2)
    return int(np.count_nonzero(_inliers(h, voters)))


def _refine_location(best, pts, dirs, inliers):
    """Least-squares intersection of inlier rays via 2x2 normal equations."""
    p = pts[inliers]
    v = dirs[inliers]
    n = v / np.hypot(v[:, 0], v[:, 1])[:, None]
    # sum of (I - n n^T) per inlier
    nx, ny = n[:, 0], n[:, 1]
    A = np.array(
        [
            [np.sum(1.0 - nx * nx), np.sum(-nx * ny)],
            [np.sum(-nx * ny), np.sum(1.0 - ny * ny)],
        ]
    )
    b = np.stack([(1.0 - nx * nx) * p[:, 0] - nx * ny * p[:, 1],
                  -nx * ny * p[:, 0] + (1.0 - ny * ny) * p[:, 1]], axis=-1).sum(axis=0)
    if np.linalg.cond(A) > 1e8:
        return best
    x = np.linalg.solve(A, b)

    def cost(q):
        dpx = q[None, 0] - p[:, 0]
        dpy = q[None, 1] - p[:, 1]
        cr = nx * dpy - ny * dpx
        return float(np.sum(cr * cr))

    return x if cost(x) <= cost(best) else best


def vote_keypoint(field, mask, cfg: VotingConfig):
    """Best-voted keypoint location and its vote count.

    Ties go to the lexicographically smallest (x, y) location. With
    cfg.refine the winner is re-estimated from its inlier rays.
    """
    pts, dirs = _masked_pixels(field, mask)
    locs = _hypothesis_locations(pts, dirs, cfg)
    if len(locs) == 0:
        raise NoValidHypothesisError("all sampled pixel pairs were parallel")
    voters = _voters(pts, dirs, cfg.inlier_cos_threshold)
    votes = _vote_counts(locs, voters)
    best_votes = votes.max()
    cand = np.flatnonzero(votes == best_votes)
    # lexicographic (x, y) tie-break
    order = np.lexsort((locs[cand, 1], locs[cand, 0]))
    best = locs[cand[order[0]]]
    if cfg.refine:
        vpts, vdirs, _ = voters
        best = _refine_location(best, vpts, vdirs, _inliers(best[None, :], voters)[0])
    return np.asarray(best, dtype=float), int(best_votes)
