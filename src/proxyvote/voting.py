"""RANSAC-style keypoint voting from a vector field.

Hypotheses are intersections of the direction rays of sampled pixel
pairs; each is scored by the number of masked pixels whose direction
agrees with it (cosine above a threshold). The winner is then refined
as the least-squares intersection of its inlier rays.

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

Two-stage counting. The voters (masked pixels with |v| >= EPS_NORM) are
split once into C = max(16, ceil(n / 32), ceil(M / 255)) strided chunks,
for n hypotheses and M voters: chunk c holds voters c, c + C, c + 2C, ...
of the row-major order, so each chunk is a spatially uniform sample of
the mask. Stage 1 counts every hypothesis with a loose float32 test that
accepts every cell the float64 test accepts, so its count is an upper
bound of the exact one, and it prunes against best, the exact count of
the hypothesis that leads stage 1 on chunk 0: each hypothesis is counted
on chunk 0, and before each further chunk it is kept only while its
count so far plus the number of voters in the chunks still to come is
>= best. Its candidates are the hypotheses whose loose count reaches
best. Stage 2 counts the candidates exactly, with the float64 test, on
all voters in one flat pass. A hypothesis that is not a candidate thus
has an exact count below best, and best is at most the maximum count,
so it can neither win nor tie. Every hypothesis with the maximum count
is a candidate and gets its exact count, and the winner, its (x, y)
tie-break, its inlier row and the refinement are those of a dense
float64 count, bit for bit. The float32 rounding, the BLAS kernel and
its thread count only decide which hypotheses reach stage 2, never an
output. One workspace of 34 bytes per cell (four float64 and two bool
tables) serves both stages. It holds the cells of stage 1's first chunk,
and at least one hypothesis over all voters; stage 1 views 9 bytes per
cell of it, and stage 2 counts its candidates in blocks of as many as it
holds. Stage 1's tables hold voters on rows and hypotheses contiguous,
stage 2's hypotheses on rows and voters contiguous.

The loose test. With o the voters' mean, q = p - o, g = h - o and the
unit direction u = v/|v|, the float32 test is |d × u| <= t·(d·u) with
t = tan(arccos(thr - η)), that is cos(d, v) >= thr - η, and it drops
the |d| >= 0.5 test. Both sides are affine in g: t·(d·u) = t·(g·u - q·u)
and d × u = g × u - q × u. So one float32 matmul per chunk, of the
(2m, 3) matrix with rows t·[ux, uy, -q·u] and then [uy, -ux, -q × u]
for its m voters, by the (3, n) rows [gx; gy; 1], gives both tables;
one comparison and a uint8 sum over the chunk finish it.

Why η = 16·u·(1 + 4B), with u = 2^-24 the float32 unit roundoff and
B = max |q|, makes the loose test a superset. Take a cell that the
float64 test accepts: its angle φ between d and v has cos φ >= thr - ε
with ε below 1e-14 (a few float64 roundings), and |d| >= 0.5. Each
float32 entry is a sum of three products of factors rounded once from
float64, so it is off by at most about 5u times the sum of the absolute
products, and less than E = 5.1u·(|g| + B) for the cross table and t·E
for the dot table, float64 roundings included. The float32 test then
accepts whenever t·(d·u) - |d × u| >= (1 + t)·E. The left side is
|d|·sin(θ - φ)/cos θ, with cos θ = thr - η; as 0 < θ - φ < π/2,
sin(θ - φ) >= (cos φ - cos θ)/√2 >= (η - ε)/√2, and cos θ + sin θ <= √2,
so η >= ε + 2E/|d| suffices. Since |g| <= |d| + B and |d| >= 0.5,
2E/|d| <= 10.2u·(1 + 4B), which 16u·(1 + 4B) covers with room for ε
and for float32 underflow (at most 2^-126 per term, times |g|). Taking
coordinates relative to o makes η scale with the mask's extent, not with
its place in the image: about 1.1e-4 for the 128² scenes of the bench
(B ≈ 28 px).

Three rules keep the argument valid. A voter with |v| >= 1e100 gets a
zero matrix row: its float64 test may overflow and accept, and 0 <= 0
makes it a loose inlier of every hypothesis. Likewise a hypothesis with
|g| > 1e20 gets a zero row; below both limits nothing overflows, in
float64 (dot² < 1e242) or float32 (t < 1/η), and a NaN hypothesis counts
0 in both stages. When thr <= 2η, stage 1 is skipped and every
hypothesis is a candidate of stage 2; otherwise thr - η > η keeps t
finite. And C >= M / 255, so a chunk never holds more than 255 voters
and its uint8 counts are exact.

Refinement sums over the winner's inliers in the original row-major
order, not the chunk order: the order of a float sum decides its last
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSupportError, NoValidHypothesisError
from .geometry import EPS_NORM, EPS_PARALLEL


@dataclass(frozen=True)
class VotingConfig:
    num_samples: int = 512
    inlier_cos_threshold: float = 0.99
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


# Bytes per cell of the counting workspace: four float64 and two bool
# tables for the exact test; the loose test views the same bytes.
_CELL_BYTES = 4 * 8 + 2
# Voters per chunk at most, so that a chunk's loose counts fit in uint8.
_MAX_CHUNK = 255
# Directions at least this long count as loose inliers of every
# hypothesis: the float64 test of such a voter may overflow.
_HUGE_DIR = 1e100
# Hypotheses farther than this from the voters' mean count as loose
# inliers of every voter, which keeps the float32 test finite.
_FAR = 1e20
# Unit roundoff of float32.
_U32 = 2.0 ** -24


def _workspace(cells):
    """Work bytes for counting tables of up to cells cells (see ``_tables``)."""
    return np.empty(cells * _CELL_BYTES, dtype=np.uint8)


def _tables(work, shape):
    """Four float64 and two bool arrays of shape, viewed from work, for ``_inliers``."""
    cells = math.prod(shape)
    floats = work[:32 * cells].view(np.float64)
    bools = work[32 * cells:34 * cells].view(bool)
    return ([floats[k * cells:(k + 1) * cells].reshape(shape) for k in range(4)]
            + [bools[k * cells:(k + 1) * cells].reshape(shape) for k in range(2)])


def _inliers(hx, hy, voters, work):
    """Bool table: voter is an inlier of hypothesis (hx, hy) (see module docstring).

    hx, hy and the voter columns of ``_voters`` broadcast against each
    other: (n, 1) hypothesis columns against the (M,) voter columns give
    an (n, M) table, scalars one row. With d = h - p and dot = d·v, the
    test is d² >= 0.25, dot >= 0 and dot² >= thr²·d²·|v|². work holds
    four float and two bool arrays of the result's shape to compute in;
    the result is work[4].
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
    m = len(voters[0])
    return _inliers(h[0], h[1], voters, _tables(_workspace(m), (m,)))


def _stride(n_hyp, n_voters):
    """C, the number of strided chunks: max(16, ceil(n_hyp / 32), ceil(M / 255)).

    A chunk's (m, n) table then has about as many cells as 32 hypotheses
    over all voters, or fewer, and no chunk holds more than 255 voters.
    """
    return max(16, -(-n_hyp // 32), -(-n_voters // _MAX_CHUNK))


def _exact_counts(locs, voters, work):
    """Exact inlier count of each hypothesis of (n, 2) locs over all voters.

    The hypotheses go in blocks of as many as keep each (block, M) table
    within work, which must hold at least M cells.
    """
    m = len(voters[0])
    block = len(work) // (_CELL_BYTES * m)
    counts = np.empty(len(locs), dtype=np.intp)
    for s in range(0, len(locs), block):
        h = locs[s:s + block]
        ok = _inliers(h[:, :1], h[:, 1:], voters, _tables(work, (len(h), m)))
        counts[s:s + block] = np.add.reduce(ok.view(np.uint8), axis=1, dtype=np.intp)
    return counts


def _loose_operands(locs, voters, threshold, stride):
    """The stage-1 operands: (3, n) float32 hypothesis rows and one
    (2m, 3) float32 voter matrix per chunk, or None when thr <= 2η.

    Row j is [hx - ox, hy - oy, 1] of hypothesis j, or zeros beyond _FAR.
    A chunk matrix holds t·[ux, uy, -q·u] for each of its voters, then
    [uy, -ux, -(q × u)], with u = v/|v|, q = p - o and t = tan(arccos(thr
    - η)), or zeros for |v| >= _HUGE_DIR. Its product with the rows is
    t·dot over cross, d = h - p, for every voter and hypothesis.
    """
    px, py, vx, vy = voters[:4]
    ox, oy = px.mean(), py.mean()
    qx, qy = px - ox, py - oy
    eta = 16.0 * _U32 * (1.0 + 4.0 * np.hypot(qx, qy).max())
    if threshold <= 2.0 * eta:
        return None
    cos = threshold - eta
    tan = np.sqrt((1.0 - cos) * (1.0 + cos)) / cos
    g = locs - [ox, oy]
    rows = np.ones((3, len(locs)), dtype=np.float32)
    rows[:2] = g.T
    rows[:, np.hypot(g[:, 0], g[:, 1]) > _FAR] = 0.0
    norm = np.hypot(vx, vy)
    with np.errstate(invalid="ignore"):
        ux, uy = vx / norm, vy / norm
    cols = np.empty((2, len(px), 3), dtype=np.float32)
    cols[0, :, 0], cols[0, :, 1], cols[0, :, 2] = tan * ux, tan * uy, -tan * (qx * ux + qy * uy)
    cols[1, :, 0], cols[1, :, 1], cols[1, :, 2] = uy, -ux, -(qx * uy - qy * ux)
    cols[:, norm >= _HUGE_DIR] = 0.0
    return rows, [cols[:, c::stride].reshape(-1, 3) for c in range(min(stride, len(px)))]


def _loose_counts(rows, mat, work):
    """Loose inlier count, uint8, of each hypothesis column of rows on one chunk:
    |cross| <= t·dot, from one float32 matmul."""
    m, n = len(mat) // 2, rows.shape[1]
    table = work[:8 * m * n].view(np.float32).reshape(2 * m, n)
    np.matmul(mat, rows, out=table)
    dot, cross = table[:m], table[m:]
    np.abs(cross, out=cross)
    ok = work[8 * m * n:9 * m * n].view(bool).reshape(m, n)
    np.less_equal(cross, dot, out=ok)
    return np.add.reduce(ok.view(np.uint8), axis=0, dtype=np.uint8)


def _prune(rows, mats, counts, best, work):
    """The hypotheses whose loose count can still reach best, and their
    loose counts.

    counts holds the loose counts of the columns of rows on chunk 0 of
    the voter matrices mats. Before each further chunk a hypothesis is
    kept only while its count so far plus the number of voters in the
    chunks still to come is >= best. Returns the survivors' indices,
    ascending, and their full loose counts.
    """
    idx = np.arange(rows.shape[1])
    counts = counts.astype(np.intp)
    sizes = [len(mat) // 2 for mat in mats]
    remaining = sum(sizes[1:])
    for mat, size in zip(mats[1:], sizes[1:]):
        keep = counts + remaining >= best
        idx, rows, counts = (np.compress(keep, a, axis=-1) for a in (idx, rows, counts))
        counts += _loose_counts(rows, mat, work)
        remaining -= size
    return idx, counts


def _pruned_counts(locs, voters, threshold):
    """Stage 2's candidates and their exact counts (see module docstring).

    Returns their indices, ascending, and their exact inlier counts;
    every hypothesis with the maximum count is among them.
    """
    m = len(voters[0])
    stride = _stride(len(locs), m)
    loose = _loose_operands(locs, voters, threshold, stride)
    work = _workspace(max(-(-m // stride) * len(locs), m))
    cand = np.arange(len(locs))
    if loose is not None:
        rows, mats = loose
        counts = _loose_counts(rows, mats[0], work)
        best = np.count_nonzero(_inlier_row(locs[np.argmax(counts)], voters))
        idx, counts = _prune(rows, mats, counts, best, work)
        cand = idx[counts >= best]
    return cand, _exact_counts(locs[cand], voters, work)


def _ill_conditioned(A):
    """np.linalg.cond(A) > 1e8, for the symmetric 2x2 matrix A.

    The closed-form eigenvalues of A decide, and the SVD runs only where
    they cannot: when the smaller one is <= 0 or NaN, or when their ratio
    lies within a relative 1e-6 of 1e8. Both ratios are off by a few ulps
    times the condition number, about 1e-8 relative near the cut, so
    outside that band they fall on the same side of it.
    """
    a, b, c = float(A[0, 0]), float(A[0, 1]), float(A[1, 1])
    mean, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    low = mean - radius
    if low > 0:
        ratio = (mean + radius) / low
        if abs(ratio - 1e8) > 1e-6 * 1e8:
            return ratio > 1e8
    return np.linalg.cond(A) > 1e8


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
    if _ill_conditioned(A):
        return best
    x = np.linalg.solve(A, b)

    def cost(q):
        dpx = q[None, 0] - px
        dpy = q[None, 1] - py
        cr = nx * dpy - ny * dpx
        return float(np.sum(cr * cr))

    return x if cost(x) <= cost(best) else best


def _winner(field, mask, cfg: VotingConfig):
    """The most-voted hypothesis before refinement, its votes and the voters.

    Ties go to the lexicographically smallest (x, y) location.
    """
    pts, dirs = _masked_pixels(field, mask)
    locs = _hypothesis_locations(pts, dirs, cfg)
    if len(locs) == 0:
        raise NoValidHypothesisError("no sampled pixel pair formed a hypothesis: each was "
                                     "one pixel twice, parallel or had a direction "
                                     "shorter than EPS_NORM")
    voters = _voters(pts, dirs, cfg.inlier_cos_threshold)
    idx, votes = _pruned_counts(locs, voters, cfg.inlier_cos_threshold)
    best_votes = votes.max()
    cand = idx[votes == best_votes]
    # lexicographic (x, y) tie-break
    order = np.lexsort((locs[cand, 1], locs[cand, 0]))
    return locs[cand[order[0]]], int(best_votes), voters


def vote_keypoint(field, mask, cfg: VotingConfig):
    """Best-voted keypoint location, re-estimated from its inlier rays, and
    its vote count (see ``_winner``)."""
    best, votes, voters = _winner(field, mask, cfg)
    return _refine_location(best, voters, _inlier_row(best, voters)), votes
