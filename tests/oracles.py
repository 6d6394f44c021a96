"""Independent brute-force oracles for the test suite.

Deliberately naive and written without sharing code with the production
paths: dense line-scan distance minimizer, central-difference gradient
checker, exhaustive all-pairs hypothesis enumerator, dense cosine
inlier counter, greedy FPS re-verifier, a second pinhole projection, a
per-point disc splatter, a per-pixel ideal-field builder and the
straightforward (K, M, 2) field-fitting loop.
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
    """Adam on the regression and proxy-voting losses on (K, M, 2)
    masked-pixel arrays, with fresh arrays at every step.

    Returns (fields, columns, diverged): columns maps iter, l_vf, l_pv,
    mean_proxy_dist, alpha and beta to their values up to and including
    the last iteration run; diverged tells whether a loss went non-finite
    there, in which case fields is None.
    """
    init = np.asarray(init, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    ii, jj = np.nonzero(mask)
    centres = np.stack([jj + 0.5, ii + 0.5], axis=-1).astype(float)
    n_masked = max(len(ii), 1)
    est = init[:, mask, :].copy()
    gt = np.asarray(gt_fields, dtype=float)[:, mask, :]
    off = np.asarray(keypoints2, dtype=float)[:, None, :] - centres[None, :, :]
    m = np.zeros_like(est)
    v = np.zeros_like(est)
    sched = cfg.schedule
    cols = {name: [] for name in ("iter", "l_vf", "l_pv", "mean_proxy_dist", "alpha", "beta")}
    for it in range(cfg.iterations):
        epoch = it // cfg.iters_per_epoch
        alpha = min(sched.alpha0 * sched.alpha_factor ** epoch, sched.alpha_cap)
        beta = min(sched.beta0 * sched.beta_factor ** epoch, sched.beta_cap)
        lr = cfg.learning_rate
        if cfg.lr_decay:
            lr = max(lr * 0.85 ** (epoch // 5), 1e-5)
        terms = oracle_field_terms(est, gt, off)
        d, valid = terms["d"], terms["valid"]
        with np.errstate(all="ignore"):
            if cfg.mode == "vf_only":
                grad = terms["g_vf"] / n_masked
            elif cfg.mode == "vf_plus_dpvl":
                grad = (terms["g_vf"] + beta * terms["g_pv"]) / n_masked
            else:
                grad = beta * terms["g_pv"] / n_masked
        l_vf, l_pv = float(np.sum(terms["vf"])), float(np.sum(terms["pv"]))
        for name, x in zip(cols, (it, l_vf, l_pv,
                                  float(np.sum(d[valid])) / max(int(np.count_nonzero(valid)), 1),
                                  alpha, beta)):
            cols[name].append(x)
        if not (np.isfinite(l_vf) and np.isfinite(l_pv)):
            return None, {k: np.array(x) for k, x in cols.items()}, True
        with np.errstate(all="ignore"):
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * grad
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * grad * grad
            mhat = m / (1 - cfg.adam_beta1 ** (it + 1))
            vhat = v / (1 - cfg.adam_beta2 ** (it + 1))
            est = est - lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
    fields = init.copy()
    fields[:, mask, :] = est
    return fields, {k: np.array(x) for k, x in cols.items()}, False
