"""Loss terms for vector-field keypoint regression with analytic gradients.
Only the formulas live here; ``trainer.py`` weights them per epoch.

The core is three plain functions on component-planar masked-pixel
arrays: est and gt are (2, ...) directions of masked pixels, plane 0
holding the x and plane 1 the y components, and off = k - p the (2, ...)
offsets from each pixel centre p to its keypoint k. The axes after the
first are free; the trainer passes (2, K, M) arrays, all keypoints at
once. So every x/y step runs on contiguous planes, with no strided view.
``vf_terms`` gives the regression value and gradient, ``proxy_terms``
the keypoint-to-line distances and their loss as a ``ProxyTerms``
record, and ``proxy_grad`` that loss's gradient from the record. Values
are sums (not means); any per-pixel normalization is the caller's
business. ``vf_loss``, ``dpvl`` and ``proxy_distances`` apply the core
to (H, W, 2) fields and (H, W) masks, with per-pixel results zero
outside the mask.

Smooth-L1 has no branch: with c = min(|a|, 1) the value is
c (|a| - c/2) and the derivative copysign(c, a). This is bit for bit the
two-branch form (a²/2 and a below 1, |a| - 1/2 and sign(a) above).
Below 1, c/2 and |a| - c/2 are exact, so the value is the product
|a| · (|a|/2), the same as (a/2) · a; where halving a tiny |a| rounds,
both products underflow to +0. copysign keeps the sign of -0.0, which
sign(a) · c would lose, and both forms give NaN for NaN.

The gradients take their signs from copysign as well, not from
``np.sign``, whose per-element branches mispredict on the changing
signs of a fit (on a 2-core Xeon, 35 against 12 µs per regression
gradient of a 2 × 8 × 375 field). For x >= 0, x · sign(r) is
copysign(x, r) except at r = ±0, where sign gives +0; those entries are
set to +0 apart. So every gradient has the bits of the ``np.sign`` form
wherever its pixel's loss is not NaN; where it is NaN, only the sign of
the NaN may differ.

The proxy-voting loss penalizes the perpendicular distance between a
keypoint and the line each pixel's direction vector defines; the distance
is normalized by the vector's length, so the loss is invariant both to
positive rescaling and to negation of any direction vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError
from .geometry import EPS_NORM, pixel_centers


@dataclass
class LossReport:
    """Scalar loss plus the per-pixel gradient w.r.t. the estimated field."""

    value: float
    grad: np.ndarray  # (H, W, 2), zero outside the mask
    skipped: int = 0  # masked pixels dropped for near-zero direction


def _smooth_l1_abs(abs_a):
    """Smooth-L1 of a and c = min(|a|, 1), given abs_a = |a|; the
    derivative is copysign(c, a)."""
    c = np.minimum(abs_a, 1.0)
    return (abs_a - c * 0.5) * c, c


def smooth_l1(a):
    """Smooth-L1 of a (elementwise): value and derivative.

    0.5 a^2 on |a| < 1, |a| - 0.5 otherwise; derivative a resp. sign(a).
    """
    a = np.asarray(a, dtype=float)
    value, c = _smooth_l1_abs(np.abs(a))
    return value, np.copysign(c, a)


def vf_terms(est, gt):
    """Smooth-L1 regression of est against gt: the summed value and the
    (2, ...) gradient.

    Per pixel the residual is the L1 norm |du| + |dv| fed through one
    smooth-L1 evaluation (not per-component).
    """
    r = est - gt
    abs_r = np.abs(r)
    # a >= 0 is its own |a|, so the derivative is c itself
    value, c = _smooth_l1_abs(abs_r[0] + abs_r[1])
    grad = np.copysign(c, r)  # c * sign(r) ...
    if not r.all():
        grad[r == 0] = 0.0  # ... which is +0 at r = ±0
    return float(value.sum()), grad


class ProxyTerms(NamedTuple):
    """Per-pixel proxy-voting quantities of ``proxy_terms``, each of the
    shape of one component plane."""

    d: np.ndarray  # |cross| / |v|, the keypoint-to-line distance; 0 where invalid
    valid: np.ndarray  # |v| >= EPS_NORM
    loss: np.ndarray  # smooth-L1 of d; exactly 0 where invalid
    dloss: np.ndarray  # its derivative in d
    cross: np.ndarray  # v x (k - p)
    abs_cross: np.ndarray
    norm: np.ndarray  # |v| where valid, 1 elsewhere
    skipped: int  # pixels dropped for near-zero direction

    @property
    def value(self) -> float:
        return float(self.loss.sum())

    def mean_dist(self) -> float:
        """Mean of d over the valid pixels."""
        d = self.d[self.valid] if self.skipped else self.d
        return float(d.sum()) / max(self.valid.size - self.skipped, 1)


def proxy_terms(est, off) -> ProxyTerms:
    """Distance from each keypoint to each pixel's direction line, and its loss."""
    norm = np.hypot(est[0], est[1])
    valid = norm >= EPS_NORM
    skipped = valid.size - int(np.count_nonzero(valid))
    if skipped:
        norm[~valid] = 1.0
    pair = est * off[::-1]  # (v_x o_y, v_y o_x)
    cross = pair[0] - pair[1]
    abs_cross = np.abs(cross)
    d = abs_cross / norm
    if skipped:
        d[~valid] = 0.0
    # d = |cross| / |v| >= +0 is its own |d|, so the derivative is c itself
    loss, dloss = _smooth_l1_abs(d)
    return ProxyTerms(d, valid, loss, dloss, cross, abs_cross, norm, skipped)


def proxy_grad(est, off, pt: ProxyTerms):
    """Gradient of the proxy loss of pt w.r.t. est, zero at invalid pixels.

    The analytic derivative through the |cross| / |v| quotient,
    including the normalization term.
    """
    s = np.copysign(1.0, pt.cross)  # sign(cross) ...
    if not pt.cross.all():
        s[pt.cross == 0] = 0.0  # ... which is +0 at cross = ±0
    g = np.stack([s, -s]) * off[::-1] / pt.norm  # (s o_y, -s o_x) / |v|
    g = pt.dloss * (g - pt.abs_cross * est / np.power(pt.norm, 3))
    if pt.skipped:
        g[:, ~pt.valid] = 0.0
    return g


def planar(a):
    """(..., 2) values as a contiguous component-planar (2, ...) array."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _check_dims(a, b, what):
    if a.shape[:2] != b.shape[:2]:
        raise DegenerateInputError(f"{what}: {a.shape} vs {b.shape}")


def _scatter(mask, values):
    """(H, W, ...) zeros with the masked pixels set to values, (M, ...)."""
    out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    out[mask] = values
    return out


def _masked_proxy(est, mask, k):
    """Planar masked directions and keypoint offsets of an (H, W) field,
    and their proxy terms."""
    est = np.asarray(est, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_dims(est, mask[..., None], "est vs mask")
    est_m = planar(est[mask])
    off = planar(np.asarray(k, dtype=float) - pixel_centers(mask))
    return mask, est_m, off, proxy_terms(est_m, off)


def vf_loss(est, gt, mask) -> LossReport:
    """Smooth-L1 regression of the field against ground truth (see ``vf_terms``)."""
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_dims(est, gt, "est vs gt")
    _check_dims(est, mask[..., None], "est vs mask")
    value, grad = vf_terms(planar(est[mask]), planar(gt[mask]))
    return LossReport(value=value, grad=_scatter(mask, grad.T))


def proxy_distances(est, mask, k):
    """Normalized point-to-line distance d(p) per pixel, plus validity mask.

    Returns (d, valid, skipped): d is (H, W) with zeros where invalid;
    valid marks masked pixels with usable direction norms.
    """
    mask, _, _, pt = _masked_proxy(est, mask, k)
    return _scatter(mask, pt.d), _scatter(mask, pt.valid), pt.skipped


def dpvl(est, mask, k) -> LossReport:
    """Proxy-voting loss: smooth-L1 of the keypoint-to-line distance."""
    mask, est_m, off, pt = _masked_proxy(est, mask, k)
    return LossReport(value=pt.value, grad=_scatter(mask, proxy_grad(est_m, off, pt).T),
                      skipped=pt.skipped)
