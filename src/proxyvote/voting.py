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

Pruned counting. The voters (masked pixels with |v| >= EPS_NORM) are
split once into C strided chunks: chunk c holds voters c, c + C,
c + 2C, ... of the row-major order, so each chunk is a spatially uniform
sample of the mask. Every hypothesis is counted on chunk 0, and the
chunk-0 leader is counted on all voters; its count is the bound best.
Before each further chunk, a hypothesis is kept only while its count so
far plus the number of voters in the chunks still to come is >= best.
This is exact: a dropped hypothesis ends with fewer than best votes, and
best is at most the maximum count, so it can neither win nor tie. The
kept ones end with full counts, which do not depend on the voter order,
and the winner and its (x, y) tie-break are taken among them. Counts on
a chunk come from a (voters, hypotheses) table, voters on rows and
hypotheses contiguous.

Refinement sums over the winner's inliers in the original row-major
order, not the chunk order: the order of a float sum decides its last
bits.
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
    """Pixels that can vote (|v| >= EPS_NORM), in row-major order.

    Returns the contiguous columns px, py, vx, vy and thr²·|v|².
    """
    ok = np.hypot(dirs[:, 0], dirs[:, 1]) >= EPS_NORM
    px, py, vx, vy = pts[ok, 0], pts[ok, 1], dirs[ok, 0], dirs[ok, 1]
    return px, py, vx, vy, threshold * threshold * (vx * vx + vy * vy)


def _workspace(size):
    """Four float and two bool work arrays of size elements for ``_inliers``."""
    return [np.empty(size) for _ in range(4)] + [np.empty(size, dtype=bool) for _ in range(2)]


def _inliers(hx, hy, voters, work):
    """Bool table: voter is an inlier of hypothesis (hx, hy) (see module docstring).

    hx, hy and the voter columns of ``_voters`` broadcast against each
    other: (1, n) hypothesis rows against (m, 1) voter columns give an
    (m, n) table, scalars against (M,) columns one row. With d = h - p
    and dot = d·v, the test is d² >= 0.25, dot >= 0 and
    dot² >= thr²·d²·|v|². work holds four float and two bool arrays of
    the result's shape to compute in; the result is work[4].
    """
    px, py, vx, vy, weight = voters
    dx, dy, dot, tmp, ok, cond = work
    np.subtract(hx, px, out=dx)
    np.subtract(hy, py, out=dy)
    np.multiply(dx, vx, out=dot)
    np.multiply(dy, vy, out=tmp)
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


def _inlier_row(h, voters):
    """(M,) bool: the voters that are inliers of the one hypothesis h, in voter order."""
    return _inliers(h[0], h[1], voters, _workspace(len(voters[0])))


def _chunks(voters, n):
    """The voters in strided chunks of (m, 1) columns, for n hypotheses.

    Chunk c holds voters c, c + C, c + 2C, ... There are C = max(16,
    ceil(n / 32)) of them, so that a chunk's (m, n) table has about as
    many cells as 32 hypotheses over all voters, or fewer. Chunks left
    empty by fewer voters than C are left out.
    """
    stride = max(16, -(-n // 32))
    return [tuple(a[c::stride, None].copy() for a in voters)
            for c in range(min(stride, len(voters[0])))]


def _chunk_counts(hx, hy, chunk, work):
    """Inlier count of each hypothesis column of (1, n) hx, hy on one chunk."""
    m, n = len(chunk[0]), hx.shape[1]
    ok = _inliers(hx, hy, chunk, [a[:m * n].reshape(m, n) for a in work])
    return np.add.reduce(ok.view(np.uint8), axis=0, dtype=np.intp)


def _pruned_counts(locs, voters):
    """Hypotheses that survive the chunked bound (see module docstring).

    Returns their indices, ascending, and their full inlier counts; every
    hypothesis with the maximum count is among them.
    """
    chunks = _chunks(voters, len(locs))
    work = _workspace(len(chunks[0][0]) * len(locs))
    hx, hy = locs.T.copy().reshape(2, 1, -1)
    counts = _chunk_counts(hx, hy, chunks[0], work)
    best = np.count_nonzero(_inlier_row(locs[np.argmax(counts)], voters))
    idx = np.arange(len(locs))
    remaining = len(voters[0]) - len(chunks[0][0])
    for chunk in chunks[1:]:
        keep = counts + remaining >= best
        idx, hx, hy, counts = idx[keep], hx[:, keep], hy[:, keep], counts[keep]
        counts += _chunk_counts(hx, hy, chunk, work)
        remaining -= len(chunk[0])
    return idx, counts


def count_inliers(h, field, mask, threshold) -> int:
    """Masked pixels whose direction points at h within the cosine threshold.

    Pixels closer than 0.5 px to h or with near-zero direction are excluded.
    The cosine rule cos(d, v) >= thr is tested in squared form (see the
    module docstring), with no square root or division.
    """
    voters = _voters(*_masked_pixels(field, mask), threshold)
    return int(np.count_nonzero(_inlier_row(np.asarray(h, dtype=float).reshape(2), voters)))


def _refine_location(best, voters, inliers):
    """Least-squares intersection of inlier rays via 2x2 normal equations.

    The sums run over the inliers in voter order, so the result depends
    on that order in its last bits.
    """
    px, py, vx, vy = (a[inliers] for a in voters[:4])
    norm = np.hypot(vx, vy)
    nx, ny = vx / norm, vy / norm
    # sum of (I - n n^T) per inlier
    A = np.array(
        [
            [np.sum(1.0 - nx * nx), np.sum(-nx * ny)],
            [np.sum(-nx * ny), np.sum(1.0 - ny * ny)],
        ]
    )
    b = np.stack([(1.0 - nx * nx) * px - nx * ny * py,
                  -nx * ny * px + (1.0 - ny * ny) * py], axis=-1).sum(axis=0)
    if np.linalg.cond(A) > 1e8:
        return best
    x = np.linalg.solve(A, b)

    def cost(q):
        dpx = q[None, 0] - px
        dpy = q[None, 1] - py
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
    idx, votes = _pruned_counts(locs, voters)
    best_votes = votes.max()
    cand = idx[votes == best_votes]
    # lexicographic (x, y) tie-break
    order = np.lexsort((locs[cand, 1], locs[cand, 0]))
    best = locs[cand[order[0]]]
    if cfg.refine:
        best = _refine_location(best, voters, _inlier_row(best, voters))
    return np.asarray(best, dtype=float), int(best_votes)
