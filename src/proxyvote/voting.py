"""RANSAC-style keypoint voting from a vector field.

Hypotheses are intersections of the direction rays of sampled pixel
pairs; each is scored by the number of voters, the masked pixels with
a direction, whose direction agrees with it (cosine above a threshold).
The winner is then refined as the least-squares intersection of its
inlier rays.

Forward rays, where PVNet intersects lines: a pair's hypothesis is
p1 + t1·u1 = p2 + t2·u2 only where t1 > 0 and t2 > 0. A line cannot
tell a direction from its negation, so a field that points away from
its keypoint, as the proxy-voting loss alone may leave it, would still
vote the keypoint from line intersections. The inlier test below needs
d·u >= 0 too: no pixel votes for a point behind it.

Unit directions and the inlier rule. A vote depends only on directions:
the inlier cosine, the intersections and the refinement are unchanged
when a vector is scaled by a positive factor. So each masked direction v
is divided once by its np.hypot, which does not overflow, into u = v/|v|,
and a field of any finite scale votes as its unit copy does; a pixel with
|v| < EPS_NORM gets a zero row and votes for nothing. A voter p is an
inlier of hypothesis h when |d| >= 0.5 and cos(d, u) = dot / |d| >= thr,
with d = h - p and dot = d·u. Since thr > 0, the cosine test holds
exactly when dot >= 0 and dot² >= thr²·|d|²: both sides of dot >= thr·|d|
are then non-negative, so squaring keeps the order. Likewise |d| >= 0.5
is |d|² >= 0.25. That holds in exact arithmetic with |u| = 1; in float64
the two forms can part only for a pair within rounding of the threshold.
The squared form needs no square root or division per pixel-hypothesis
pair, and it is the one test that counting, scoring the hypotheses and
refining the winner all use.

One pass per scene. The K fields of a scene, a (K, M, 2) stack of their
directions at the M masked pixels in row-major order, share one pass
with one config (``SceneVote``); ``vote_keypoint`` votes one keypoint of
it, or one dense (H, W, 2) field's masked pixels as a stack of one. One
draw of n pixel pairs serves every keypoint. A pair forms a hypothesis
for keypoint k unless it is one pixel twice, or its two directions for k
are parallel or shorter than EPS_NORM, or their rays meet behind either
pixel. Each keypoint goes on with its own hypotheses, in draw order, and
its own voters (the masked pixels whose direction for k has
|v| >= EPS_NORM), so its vote is the one it would get alone; a keypoint
without a hypothesis fails alone.

Two-stage counting. Both stages of keypoint k count its V voters and
nothing else. Stage 1 splits them into C = max(16, ceil(n_k / 32),
ceil(V / 255)) strided chunks (at most V), n_k the number of k's
hypotheses: chunk c holds voters c, c + C, c + 2C, ... of the row-major
order, padded to m = ceil(V / C) rows, so each chunk is a spatially
uniform sample of them. It counts every hypothesis with a loose float32
test that accepts every cell the float64 test accepts, so its count is
an upper bound of the exact one; a pad gets a row that accepts no
hypothesis (see below). best is the largest exact count among the
_LEADERS = 8 of k's hypotheses with the highest chunk-0 counts, and
stage 1 prunes against it: before each further chunk a hypothesis is
kept only while its count so far plus the number of rows in the chunks
still to come is >= best.
Its candidates are the hypotheses whose loose count reaches best. Stage
2 counts the candidates exactly, with the float64 test, on all of k's
voters in one flat pass. A hypothesis that is not a candidate thus has
an exact count below best, and best is at most the maximum count, so it
can neither win nor tie. Every hypothesis with the maximum count is a
candidate and gets its exact count, and the winner, its (x, y)
tie-break, its inlier row and the refinement are those of a dense
float64 count, bit for bit. The float32 rounding, the BLAS kernel and
its thread count and the choice of best only decide which hypotheses
reach stage 2, never the winner or its inliers; the kernel does decide
the last bits of the refined location, through LAPACK's 2x2 solve (by
up to 1.4e-14 px across four OpenBLAS kernels). Stage 1's tables hold
voters on rows and hypotheses contiguous, stage 2's hypotheses on rows
and voters contiguous.

Sizes. Stage 2 counts in blocks of at most _STAGE2_CELLS = 8,192 cells
(about 50 bytes of float64 temporaries each), or of one hypothesis when
M is larger; budgets of 2,048 to 32,768 cells timed alike. Voting 36
noisy 128² scenes (M ≈ 900) 40 times on a shared 2-core Xeon, one BLAS
thread, stage 1 a keypoint at a time ran at a paired time ratio of 0.981
(quartiles 0.926-1.036) against groups of 3 keypoints per batched
matmul, and a scene vote's tracemalloc peak fell from 1.15 to 0.73 MB
(median over the scenes).

The loose test. With o the mean of k's voters, q = p - o, g = h - o
and the voter's unit direction u, the float32 test is |d × u| <=
t·(d·u) with t = tan(arccos(thr - η)), that is cos(d, v) >= thr - η, and
it drops the |d| >= 0.5 test. Both sides are affine in g: t·(d·u) =
t·(g·u - q·u) and d × u = g × u - q × u. So one float32 matmul per
chunk, of the (2m, 3) matrix with rows t·[ux, uy, -q·u] and then [uy,
-ux, -q × u] for its m voters, by the (3, n) rows [gx; gy; 1], gives
both tables; one comparison and a uint8 sum over the chunk finish it. A
pad's rows are 0 and [0, 0, 1]: t·dot = 0 < 1 = |cross| for every
hypothesis.

Why η = 16·u·(1 + 4B), with u = 2^-24 the float32 unit roundoff and
B = max |q| over k's voters, makes the loose test a superset.
Take a cell that the float64 test accepts: its angle φ between d and u
has cos φ >= thr - ε with ε below 1e-14 (a few float64 roundings, and
|u|² = 1 within a few ulps), and |d| >= 0.5. Each float32 entry is a
sum of three products of factors rounded once from float64, so it is
off by at most about 5u times the sum of the absolute products, and
less than E = 5.1u·(|g| + B) for the cross table and t·E for the dot
table, float64 roundings included. The float32 test then accepts
whenever t·(d·u) - |d × u| >= (1 + t)·E. The left side is
|d|·sin(θ - φ)/cos θ, with cos θ = thr - η; as 0 < θ - φ < π/2,
sin(θ - φ) >= (cos φ - cos θ)/√2 >= (η - ε)/√2, and
cos θ + sin θ <= √2, so η >= ε + 2E/|d| suffices. Since |g| <= |d| + B
and |d| >= 0.5, 2E/|d| <= 10.2u·(1 + 4B), which 16u·(1 + 4B) covers
with room for ε and for float32 underflow (at most 2^-126 per term,
times |g|). The argument holds for any origin o with |q| <= B for every
voter; taking o and B over k's voters makes η scale with their extent,
not with their place in the image: about 1.1e-4 for the 128² scenes of
the bench (B ≈ 28 px).

No hypothesis overflows. Unit rays with |u1 × u2| >= EPS_PARALLEL meet
at h = p1 + t1·u1, |t1| = |d × u2| / |u1 × u2| <= |d|·(1 + ε)/EPS_PARALLEL
for d = p2 - p1, and o lies in the image, so |g| <= (10⁶ + 1)·diagonal.
With t < 1/η ≈ 10⁶, float32 cannot overflow below a diagonal of about
10²⁶ px, nor float64 (|u| = 1); E is relative, so |g| needs no cap.
When thr <= 2η, stage 1 is skipped and every hypothesis is a candidate
of stage 2; otherwise thr - η > η keeps t finite. And C >= V / 255, so
a chunk never holds more than 255 rows and its uint8 counts are exact.

Refinement sums over the winner's inliers in the original row-major
order, not the chunk order: the order of a float sum decides its last
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .geometry import EPS_NORM, EPS_PARALLEL, pixel_centers

MAX_NUM_SAMPLES = 100_000  # pixel pairs; _hypotheses' arrays peak near 65 MB at K = 8


@dataclass(frozen=True)
class VotingConfig:
    num_samples: int = 512
    inlier_cos_threshold: float = 0.99
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_samples <= MAX_NUM_SAMPLES:
            raise ValueError(f"num_samples must be in [1, {MAX_NUM_SAMPLES}]")
        if not (0.0 < self.inlier_cos_threshold < 1.0):
            raise ValueError("inlier_cos_threshold must be in (0, 1)")


def _units(dirs):
    """u = v/|v| for each direction v of dirs (..., 2), and a zero row where
    |v| < EPS_NORM: that pixel votes for nothing."""
    norm = np.hypot(dirs[..., 0], dirs[..., 1])[..., None]
    return np.divide(dirs, norm, out=np.zeros_like(dirs), where=norm >= EPS_NORM)


def _hypotheses(pts, units, cfg: VotingConfig):
    """The intersections of the rays of sampled pixel pairs for each field
    of the (K, M, 2) unit directions: K arrays of shape (n_k, 2) in draw
    order.

    Every field samples the same pairs, deterministic per seed; pairs of
    one pixel twice are dropped. A pair of parallel directions, or with a
    non-voter's zero row, forms no hypothesis for that field, nor does a
    pair whose rays meet behind a pixel (t1 <= 0 or t2 <= 0). Needs M >= 2.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    ia = rng.integers(0, len(pts), cfg.num_samples)
    ib = rng.integers(0, len(pts), cfg.num_samples)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    u1, u2 = units[:, ia], units[:, ib]
    p1 = pts[ia]
    d = pts[ib] - p1

    cross = u1[..., 0] * u2[..., 1] - u1[..., 1] * u2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # at parallel pairs
        t1 = (d[:, 0] * u2[..., 1] - d[:, 1] * u2[..., 0]) / cross  # (d × u2) / (u1 × u2)
        t2 = (d[:, 0] * u1[..., 1] - d[:, 1] * u1[..., 0]) / cross  # (d × u1) / (u1 × u2)
    # by field, then in draw order
    k, j = np.nonzero((np.abs(cross) >= EPS_PARALLEL) & (t1 > 0) & (t2 > 0))
    locs = p1[j] + t1[k, j, None] * u1[k, j]
    return np.split(locs, np.cumsum(np.bincount(k, minlength=len(units)))[:-1])


def _voters(pts, units, threshold):
    """The contiguous columns px, py, ux, uy of the pixels that can vote (a
    nonzero unit row), in row-major order, and the scalar thr²."""
    ok = units.any(axis=1)
    return pts[ok, 0], pts[ok, 1], units[ok, 0], units[ok, 1], threshold * threshold


# Pixels per chunk at most, so that a chunk's loose counts fit in uint8.
_MAX_CHUNK = 255
# Unit roundoff of float32.
_U32 = 2.0 ** -24
# Chunk-0 leaders whose largest exact count is stage 1's bound best.
_LEADERS = 8
# Cells of a stage-2 table at most, unless one hypothesis takes more.
_STAGE2_CELLS = 1 << 13


def _inliers(hx, hy, voters):
    """Bool table: voter is an inlier of hypothesis (hx, hy) (see module docstring).

    hx, hy and the voter columns of ``_voters`` broadcast against each
    other: (n, 1) hypothesis columns against the (M,) voter columns give
    an (n, M) table, scalars one row.
    """
    px, py, ux, uy, thr2 = voters
    dx, dy = hx - px, hy - py
    dot = dx * ux + dy * uy
    d2 = dx * dx + dy * dy
    return (d2 >= 0.25) & (dot >= 0.0) & (dot * dot >= d2 * thr2)


def _stride(n_hyp, n_voters):
    """C, the number of strided chunks: max(16, ceil(n_hyp / 32), ceil(V / 255))
    for V voters.

    A chunk's (m, n) table then has about as many cells as 32 hypotheses
    over all voters, or fewer, and no chunk holds more than 255 voters.
    """
    return max(16, -(-n_hyp // 32), -(-n_voters // _MAX_CHUNK))


def _exact_counts(locs, voters):
    """Exact inlier count of each hypothesis of (n, 2) locs over all voters,
    in blocks of as many as keep a table within _STAGE2_CELLS, at least one."""
    block = max(1, _STAGE2_CELLS // len(voters[0]))
    counts = np.empty(len(locs), dtype=np.intp)
    for s in range(0, len(locs), block):
        h = locs[s:s + block]
        ok = _inliers(h[:, :1], h[:, 1:], voters)
        counts[s:s + block] = np.add.reduce(ok.view(np.uint8), axis=1, dtype=np.intp)
    return counts


def _loose_operands(hyps, voters, threshold, chunks):
    """The stage-1 operands of one keypoint, or None when thr <= 2η: (3, n)
    float32 hypothesis rows and (C, 2m, 3) float32 voter matrices, one per
    chunk of m = ceil(V / C) of the V voters of ``_voters``.

    Column j of the rows is [hx - ox, hy - oy, 1] of hypothesis j of the
    (n, 2) hyps, unclamped: no hypothesis lies far enough away to
    overflow (module docstring). Chunk c holds voters c, c + C, ... in
    row-major order, padded to m. Its matrix holds t·[ux, uy, -q·u] for
    each of its voters, then [uy, -ux, -(q × u)], with q = p - o and
    t = tan(arccos(thr - η)); and dot row 0 and cross row [0, 0, 1] for a
    pad. Its product with the rows is t·dot over cross, d = h - p, for
    every voter and hypothesis.
    """
    px, py, ux, uy, _ = voters
    o = px.mean(), py.mean()
    qx, qy = px - o[0], py - o[1]
    eta = 16.0 * _U32 * (1.0 + 4.0 * np.hypot(qx, qy).max())
    if threshold <= 2.0 * eta:
        return None
    cos = threshold - eta
    tan = np.sqrt((1.0 - cos) * (1.0 + cos)) / cos
    rows = np.ones((3, len(hyps)), dtype=np.float32)
    rows[:2] = (hyps - o).T

    # columns of the dot then cross rows, voters then pads; chunk c takes
    # column c of the (m, C) row-major grid of the padded voters
    m = -(-len(px) // chunks)
    cols = np.zeros((6, m * chunks), dtype=np.float32)
    cols[5] = 1.0  # a pad's cross row [0, 0, 1] accepts no finite row
    cols[:, :len(px)] = (tan * ux, tan * uy, -tan * (qx * ux + qy * uy),
                         uy, -ux, -(qx * uy - qy * ux))
    return rows, cols.reshape(2, 3, m, chunks).transpose(3, 0, 2, 1).reshape(chunks, 2 * m, 3)


def _loose_counts(rows, mat):
    """Loose inlier count, uint8, of each hypothesis column of the (3, n) rows
    on one chunk's (2m, 3) matrix: |cross| <= t·dot, from one float32 matmul.
    """
    m = len(mat) // 2
    table = mat @ rows
    dot, cross = table[:m], table[m:]
    ok = np.abs(cross, out=cross) <= dot
    return np.add.reduce(ok.view(np.uint8), axis=0, dtype=np.uint8)


def _prune(rows, mats, counts, best):
    """The hypotheses whose loose count can still reach best, and their
    loose counts.

    counts holds the loose counts of the columns of rows on chunk 0 of
    the voter matrices mats. Before each further chunk a hypothesis is
    kept only while its count so far plus the number of rows in the
    chunks still to come, a bound of their voters, is >= best. Returns
    the survivors' indices, ascending, and their full loose counts.
    """
    idx = np.arange(rows.shape[1])
    counts = counts.astype(np.intp)
    m = mats.shape[1] // 2
    for c in range(1, len(mats)):
        keep = counts + m * (len(mats) - c) >= best
        idx, rows, counts = (np.compress(keep, a, axis=-1) for a in (idx, rows, counts))
        counts += _loose_counts(rows, mats[c])
    return idx, counts


def _ill_conditioned(A):
    """np.linalg.cond(A) > 1e8, for the symmetric 2x2 matrix A.

    The closed-form eigenvalues of A decide, and the SVD runs only where
    they cannot: when the smaller one is <= 0 or NaN, or when their ratio
    lies within a relative 1e-6 of 1e8. Both ratios are off by a few ulps
    times the condition number, about 1e-8 relative near the cut, so
    outside that band they fall on the same side of it. np.linalg.cond on
    every call was slower on the scenes of the module docstring's Sizes
    (25 of 30 paired runs, median +2.6 %, medians 211 → 224 ms).
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
    """Least-squares intersection of inlier rays via 2x2 normal equations,
    on the voters' unit columns n = u as they are.

    The sums run over the inliers in voter order, so the result depends
    on that order in its last bits.
    """
    px, py, nx, ny = (a[inliers] for a in voters[:4])
    # the entries of I - n n^T per inlier; A sums them, b sums them times p
    axx, axy, ayy = 1.0 - nx * nx, -nx * ny, 1.0 - ny * ny
    sxy = np.sum(axy)
    A = np.array([[np.sum(axx), sxy], [sxy, np.sum(ayy)]])
    b = np.stack([axx * px + axy * py, axy * px + ayy * py], axis=-1).sum(axis=0)
    if _ill_conditioned(A):
        return best
    x = np.linalg.solve(A, b)

    def cost(q):
        dpx = q[None, 0] - px
        dpy = q[None, 1] - py
        cr = nx * dpy - ny * dpx
        return float(np.sum(cr * cr))

    return x if cost(x) <= cost(best) else best


class SceneVote:
    """The fields of a (K, M, 2) masked stack voted over mask with one cfg,
    a keypoint at a time by ``vote``, sharing one pass (module docstring).

    The votes do the work, not the constructor, so that the K votes take
    all of the scene's voting time: the first one finds the masked pixels'
    centres, draws the pairs and forms every keypoint's hypotheses, and
    each vote builds and counts its own keypoint's stage 1. The keypoints
    may be voted in any order, and each keypoint's vote is the one of its
    field alone.
    """

    def __init__(self, fields, mask, cfg: VotingConfig):
        self.fields, self.mask, self.cfg = fields, np.asarray(mask, dtype=bool), cfg
        self._pass = None  # pts, units, each keypoint's hypotheses

    def _winner(self, k):
        """Keypoint k's most-voted hypothesis before refinement, its votes and
        its voters; ties go to the lexicographically smallest (x, y)."""
        if self._pass is None:
            pts = pixel_centers(self.mask)
            if len(pts) < 2:
                raise DegenerateInputError(f"need >= 2 masked pixels, got {len(pts)}")
            units = _units(np.asarray(self.fields, dtype=float))
            self._pass = pts, units, _hypotheses(pts, units, self.cfg)
        pts, units, hyps = self._pass
        hyps = hyps[k]
        if len(hyps) == 0:
            raise DegenerateInputError("no sampled pixel pair formed a hypothesis: each was "
                                       "one pixel twice, parallel, met behind a pixel or had "
                                       "a direction shorter than EPS_NORM")
        threshold = self.cfg.inlier_cos_threshold
        voters = _voters(pts, units[k], threshold)
        n_voters = len(voters[0])
        chunks = min(_stride(len(hyps), n_voters), n_voters)
        cand = np.arange(len(hyps))
        loose = _loose_operands(hyps, voters, threshold, chunks)
        if loose is not None:
            rows, mats = loose
            counts = _loose_counts(rows, mats[0])
            leaders = np.argsort(counts, kind="stable")[-_LEADERS:]
            best = _exact_counts(hyps[leaders], voters).max()
            idx, counts = _prune(rows, mats, counts, best)
            cand = idx[counts >= best]
        votes = _exact_counts(hyps[cand], voters)
        best_votes = votes.max()
        tied = cand[votes == best_votes]
        # lexicographic (x, y) tie-break
        order = np.lexsort((hyps[tied, 1], hyps[tied, 0]))
        return hyps[tied[order[0]]], int(best_votes), voters

    def vote(self, k):
        """Keypoint k's best-voted location re-estimated from its inlier rays,
        and its vote count; raises the ProxyVoteError that keypoint meets."""
        hyp, votes, voters = self._winner(k)
        return _refine_location(hyp, voters, _inliers(hyp[0], hyp[1], voters)), votes


def vote_keypoint(field, mask, cfg: VotingConfig, scene=None, k=0):
    """Best-voted keypoint location of one dense (H, W, 2) field over mask
    with cfg, re-estimated from its inlier rays, and its vote count.

    field's masked pixels are voted as a stack of one, unless scene is
    given: the ``SceneVote`` over mask with cfg of a masked stack. The vote
    is then ``scene.vote(k)``, so that the K keypoints of a scene share
    one pass, and field is unused.
    """
    if scene is None:
        mask = np.asarray(mask, dtype=bool)
        scene, k = SceneVote(np.asarray(field, dtype=float)[mask][None], mask, cfg), 0
    return scene.vote(k)
