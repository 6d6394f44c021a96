"""Independent brute-force oracles for the test suite.

Deliberately naive and written without sharing code with the production
paths: dense line-scan distance minimizer, central-difference gradient
checker, exhaustive all-pairs hypothesis enumerator, dense cosine
inlier counter and unpruned vote, the dense float64 squared-form vote
with its sampling and refinement, greedy FPS re-verifier, a second
pinhole projection, a per-point disc splatter, per-pixel ideal fields,
the dense-grid scene corruption and the straightforward affine
field-fitting loop.
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
    """Exhaustive hypothesis set over every masked pixel pair whose rays
    meet in front of both pixels."""
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
            if t <= 0 or (d[0] * v1[1] - d[1] * v1[0]) / cr <= 0:  # met behind a pixel
                continue
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


def oracle_inlier_table(hyps, field, mask, inlier_cos=0.99):
    """(n, M) bool from the dense cosine matrix: masked pixel m votes for hypothesis n.

    A masked pixel p with direction v votes for h when |h - p| >= 0.5,
    |v| >= 1e-8 and (h - p)·v / (|h - p| |v|) >= inlier_cos. Pixels are
    in row-major order.
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
    return cos >= inlier_cos


def oracle_inlier_counts(hyps, field, mask, inlier_cos=0.99):
    """Per-hypothesis inlier counts from the dense cosine matrix."""
    return np.count_nonzero(oracle_inlier_table(hyps, field, mask, inlier_cos), axis=1)


def oracle_vote(hyps, field, mask, inlier_cos=0.99):
    """Dense, unpruned vote: (location, votes) of the most-voted hypothesis.

    Every hypothesis is counted on every pixel; among those with the
    maximum count the lexicographically smallest (x, y) wins.
    """
    hyps = np.asarray(hyps, dtype=float).reshape(-1, 2)
    counts = oracle_inlier_counts(hyps, field, mask, inlier_cos)
    best = counts.max()
    winner = min((float(x), float(y)) for (x, y), c in zip(hyps, counts) if c == best)
    return np.array(winner), int(best)


def oracle_squared_vote(field, mask, num_samples=512, threshold=0.99, seed=0, refine=True):
    """The whole vote in float64, dense: (location, votes), or None with no hypothesis.

    Each direction v with |v| >= 1e-8 is divided once by np.hypot(v) into
    u; a shorter one gives no hypothesis and no vote. Hypotheses are the
    ray intersections of num_samples random pixel pairs (a generator
    seeded with seed draws every first pixel, then every second one;
    pairs of one pixel, of a direction shorter than 1e-8, with
    |u1 × u2| < 1e-6 or whose rays meet behind a pixel, t1 <= 0 or t2 <= 0
    in p1 + t1·u1 = p2 + t2·u2, give none). Every hypothesis is tested on every
    pixel with |v| >= 1e-8 by the squared form d² >= 0.25, dot >= 0 and
    dot² >= d²·thr², d = h - p and dot = d·u, and the (x, y)-smallest of
    the most-voted wins. With refine, the least-squares intersection of
    its inlier rays u, summed in row-major order, replaces it when the
    normal matrix has condition <= 1e8 and the rays fit it no worse. No
    pruning and no float32 prefilter.
    """
    mask = np.asarray(mask, dtype=bool)
    ii, jj = np.nonzero(mask)
    pts = np.stack([jj + 0.5, ii + 0.5], axis=-1)
    dirs = np.asarray(field, dtype=float)[ii, jj]
    norm = np.hypot(dirs[:, 0], dirs[:, 1])
    ok = norm >= 1e-8
    units = dirs.copy()
    units[ok] /= norm[ok, None]
    rng = np.random.default_rng(seed)
    first = rng.integers(0, len(pts), num_samples)
    second = rng.integers(0, len(pts), num_samples)
    hyps = []
    for a, b in zip(first, second):
        if a == b or not (ok[a] and ok[b]):
            continue
        u1, u2 = units[a], units[b]
        cr = u1[0] * u2[1] - u1[1] * u2[0]
        if abs(cr) < 1e-6:
            continue
        d = pts[b] - pts[a]
        t1 = (d[0] * u2[1] - d[1] * u2[0]) / cr
        t2 = (d[0] * u1[1] - d[1] * u1[0]) / cr
        if t1 <= 0 or t2 <= 0:  # the rays meet behind a pixel
            continue
        hyps.append(pts[a] + t1 * u1)
    if not hyps:
        return None
    hyps = np.array(hyps)

    px, py, ux, uy = pts[ok, 0], pts[ok, 1], units[ok, 0], units[ok, 1]

    def inliers(h):
        dx = h[:, :1] - px[None, :]
        dy = h[:, 1:] - py[None, :]
        dot = dx * ux + dy * uy
        d2 = dx * dx + dy * dy
        return (d2 >= 0.25) & (dot >= 0.0) & (dot * dot >= d2 * (threshold * threshold))

    counts = np.concatenate([np.count_nonzero(inliers(hyps[s:s + 64]), axis=1)
                             for s in range(0, len(hyps), 64)])
    votes = int(counts.max())
    tied = np.flatnonzero(counts == votes)
    best = hyps[tied[np.lexsort((hyps[tied, 1], hyps[tied, 0]))[0]]]
    if not refine:
        return best, votes

    row = inliers(best[None, :])[0]
    qx, qy, nx, ny = px[row], py[row], ux[row], uy[row]
    A = np.array([[np.sum(1.0 - nx * nx), np.sum(-nx * ny)],
                  [np.sum(-nx * ny), np.sum(1.0 - ny * ny)]])
    rhs = np.stack([(1.0 - nx * nx) * qx - nx * ny * qy,
                    -nx * ny * qx + (1.0 - ny * ny) * qy], axis=-1).sum(axis=0)
    if np.linalg.cond(A) > 1e8:
        return best, votes
    x = np.linalg.solve(A, rhs)

    def cost(q):
        cr = nx * (q[None, 1] - qy) - ny * (q[None, 0] - qx)
        return float(np.sum(cr * cr))

    return (x if cost(x) <= cost(best) else best), votes


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


def oracle_ideal_fields(mask, keypoints2):
    """Unit direction from pixel centre (j + 0.5, i + 0.5) to each
    keypoint, one masked pixel at a time; zero off the mask and within
    1e-9 of the keypoint."""
    mask = np.asarray(mask, dtype=bool)
    kps = np.asarray(keypoints2, dtype=float)
    fields = np.zeros((len(kps),) + mask.shape + (2,))
    for ki, (kx, ky) in enumerate(kps):
        for i, j in zip(*np.nonzero(mask)):
            dx = kx - (j + 0.5)
            dy = ky - (i + 0.5)
            r = np.hypot(dx, dy)
            if r >= 1e-9:
                fields[ki, i, j] = dx / r, dy / r
    return fields


def oracle_corrupt(gt_fields, mask, angular_sigma, flip_prob, occlusion_frac, rng_seed):
    """(mask, fields) of a scene corrupted one kept pixel at a time.

    The draws come in this order from one seed: one uniform choice of the
    masked cell the occlusion blob is grown from, breadth-first over up,
    down, left, right neighbours; then, for each keypoint and each pixel
    left in the mask in row-major order, a normal angle (when sigma > 0);
    then, in the same order, a uniform flip draw. Each kept pixel is
    rotated by its angle and negated when its draw is below flip_prob;
    every other pixel is zero.
    """
    gt_fields = np.asarray(gt_fields, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    rng = np.random.default_rng(rng_seed)
    sigma = math.radians(angular_sigma)

    h, w = mask.shape
    kept = mask.copy()
    n_remove = int(round(occlusion_frac * int(mask.sum())))
    cells = [i * w + j for i in range(h) for j in range(w) if mask[i, j]]
    if n_remove > 0 and cells:
        start = int(rng.choice(np.array(cells)))
        queue, queued, removed = [start], {start}, 0
        while queue and removed < n_remove:
            i, j = divmod(queue.pop(0), w)
            kept[i, j] = False
            removed += 1
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ni < h and 0 <= nj < w and mask[ni, nj] and ni * w + nj not in queued:
                    queued.add(ni * w + nj)
                    queue.append(ni * w + nj)

    pixels = [(i, j) for i in range(h) for j in range(w) if kept[i, j]]
    keys = range(len(gt_fields))
    theta = np.array([[rng.normal(0.0, sigma) if sigma > 0 else 0.0 for _ in pixels]
                      for _ in keys]).reshape(len(keys), len(pixels))
    flips = [[rng.random() < flip_prob for _ in pixels] for _ in keys]
    c, s = np.cos(theta), np.sin(theta)
    fields = np.zeros_like(gt_fields)
    for k in keys:
        for p, (i, j) in enumerate(pixels):
            fx, fy = gt_fields[k, i, j]
            sign = -1.0 if flips[k][p] else 1.0
            fields[k, i, j] = (sign * (c[k, p] * fx - s[k, p] * fy),
                               sign * (s[k, p] * fx + c[k, p] * fy))
    return kept, fields


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


def oracle_smooth_l1(a):
    """Two-branch smooth-L1: (value, derivative)."""
    abs_a = np.abs(a)
    quad = abs_a < 1.0
    return np.where(quad, 0.5 * a * a, abs_a - 0.5), np.where(quad, a, np.sign(a))


def oracle_field_terms(est, gt, off):
    """Regression and proxy-voting terms of (..., M, 2) masked-pixel arrays
    (off = k - p), written out with two-branch smooth-L1.

    Returns a dict of per-pixel arrays: vf (regression value), g_vf,
    valid, d, pv (proxy value) and g_pv.
    """
    with np.errstate(all="ignore"):
        r = est - gt
        val, dval = oracle_smooth_l1(np.abs(r[..., 0]) + np.abs(r[..., 1]))
        g_vf = dval[..., None] * np.sign(r)
        n = np.hypot(est[..., 0], est[..., 1])
        valid = n >= 1e-8
        norm = np.where(valid, n, 1.0)
        cross = est[..., 0] * off[..., 1] - est[..., 1] * off[..., 0]
        d = np.where(valid, np.abs(cross) / norm, 0.0)
        loss, dloss = oracle_smooth_l1(d)
        s = np.sign(cross)
        n3 = norm ** 3
        g_pv = np.stack(
            [dloss * (s * off[..., 1] / norm - np.abs(cross) * est[..., 0] / n3),
             dloss * (-s * off[..., 0] / norm - np.abs(cross) * est[..., 1] / n3)],
            axis=-1)
    return {"vf": val, "g_vf": g_vf, "valid": valid, "d": d, "pv": loss,
            "g_pv": np.where(valid[..., None], g_pv, 0.0)}


def oracle_fit_field(init, mask, gt_fields, keypoints2, cfg):
    """Adam on the (2, K, 3) coefficients of an affine field per keypoint
    and component, with fresh arrays at every step.

    The basis is 1, x̃, ỹ over the masked pixel centres, x̃ and ỹ centred
    on their mean and divided by their std. The coefficients start at the
    least-squares projection of the masked pixels of the dense
    (K, H, W, 2) init; each step takes the losses of
    ``oracle_field_terms`` at the field the coefficients give, and the
    coefficients' gradient is the pixels' gradient times the basis. The
    products with the basis are the (2, K, ·) matmuls of the trainer,
    whose bits depend on the BLAS kernel.

    Returns (fields, columns, diverged): columns maps iter, l_vf, l_pv,
    mean_proxy_dist and beta to their values up to and including
    the last iteration run; diverged tells whether a loss went non-finite
    there, in which case fields is None.
    """
    init = np.asarray(init, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    ii, jj = np.nonzero(mask)
    centres = np.stack([jj + 0.5, ii + 0.5], axis=-1).astype(float)
    n_masked = max(len(ii), 1)
    xy = (centres - centres.mean(axis=0)) / centres.std(axis=0)
    phi = np.stack([np.ones(len(ii)), xy[:, 0], xy[:, 1]])  # (3, M)
    x0 = init[:, mask, :]
    k = len(x0)
    # column c·K + k of the right-hand side is component c of keypoint k
    sol = np.linalg.lstsq(phi.T, np.concatenate([x0[..., 0].T, x0[..., 1].T], axis=1),
                          rcond=None)[0]
    coef = np.stack([sol[:, :k].T, sol[:, k:].T])  # (2, K, 3)
    gt = np.asarray(gt_fields, dtype=float)[:, mask, :]
    off = np.asarray(keypoints2, dtype=float)[:, None, :] - centres[None, :, :]
    m = np.zeros_like(coef)
    v = np.zeros_like(coef)
    cols = {name: [] for name in ("iter", "l_vf", "l_pv", "mean_proxy_dist", "beta")}
    for it in range(cfg.iterations):
        epoch = it // cfg.iters_per_epoch
        beta = min(cfg.beta0 * 1.5 ** epoch, cfg.beta_cap)
        lr = cfg.learning_rate
        if cfg.lr_decay:
            lr = max(lr * 0.85 ** (epoch // 5), 1e-5)
        with np.errstate(all="ignore"):
            est = np.moveaxis(coef @ phi, 0, -1)  # (K, M, 2)
            terms = oracle_field_terms(est, gt, off)
            if cfg.mode == "vf_only":
                grad = terms["g_vf"] / n_masked
            elif cfg.mode == "vf_plus_dpvl":
                grad = (terms["g_vf"] + beta * terms["g_pv"]) / n_masked
            else:
                grad = beta * terms["g_pv"] / n_masked
        d, valid = terms["d"], terms["valid"]
        l_vf, l_pv = float(np.sum(terms["vf"])), float(np.sum(terms["pv"]))
        for name, x in zip(cols, (it, l_vf, l_pv,
                                  float(np.sum(d[valid])) / max(int(np.count_nonzero(valid)), 1),
                                  beta)):
            cols[name].append(x)
        if not (np.isfinite(l_vf) and np.isfinite(l_pv)):
            return None, {k: np.array(x) for k, x in cols.items()}, True
        with np.errstate(all="ignore"):
            g = np.ascontiguousarray(np.moveaxis(grad, -1, 0)) @ phi.T  # (2, K, 3)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            mhat = m / (1 - 0.9 ** (it + 1))
            vhat = v / (1 - 0.999 ** (it + 1))
            coef = coef - lr * mhat / (np.sqrt(vhat) + 1e-8)
    fields = np.zeros_like(init)
    with np.errstate(all="ignore"):
        fields[:, mask, :] = np.moveaxis(coef @ phi, 0, -1)
    return fields, {k: np.array(x) for k, x in cols.items()}, False
