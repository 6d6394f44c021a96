"""Loss terms for vector-field keypoint regression with analytic gradients.

The core works on masked-pixel arrays: est and gt are (..., M, 2)
directions of M masked pixels, off = k - p the (..., M, 2) offsets from
each pixel centre p to its keypoint k; leading axes (one per keypoint,
say) are batch axes. ``vf_terms`` is the regression loss,
``proxy_terms`` the keypoint-to-line distance and its loss,
``proxy_grad`` that loss's gradient. Values are sums (not means); any
per-pixel normalization is the caller's business. ``vf_loss``, ``dpvl``
and ``proxy_distances`` apply the core to (H, W, 2) fields and (H, W)
masks, with per-pixel results zero outside the mask.

The proxy-voting loss penalizes the perpendicular distance between a
keypoint and the line each pixel's direction vector defines; the distance
is normalized by the vector's length, so the loss is invariant both to
positive rescaling and to negation of any direction vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .geometry import EPS_NORM, pixel_centers


@dataclass
class LossReport:
    """Scalar loss plus the per-pixel gradient w.r.t. the estimated field."""

    value: float
    grad: np.ndarray  # (H, W, 2), zero outside the mask
    skipped: int = 0  # masked pixels dropped for near-zero direction


@dataclass(frozen=True)
class WeightSchedule:
    """Per-epoch growth schedule for the segmentation / proxy-loss weights."""

    alpha0: float = 1.0
    alpha_factor: float = 1.1
    alpha_cap: float = 10.0
    beta0: float = 1e-3
    beta_factor: float = 1.5
    beta_cap: float = 1e-2

    def __post_init__(self):
        if self.alpha_factor < 1 or self.beta_factor < 1:
            raise ValueError("schedule factors must be >= 1")
        if self.alpha_cap < self.alpha0 or self.beta_cap < self.beta0:
            raise ValueError("caps must be >= initial values")


DEFAULT_SCHEDULE = WeightSchedule()


def smooth_l1(a):
    """Smooth-L1 of a (elementwise): value and derivative.

    0.5 a^2 on |a| < 1, |a| - 0.5 otherwise; derivative a resp. sign(a).
    """
    a = np.asarray(a, dtype=float)
    abs_a = np.abs(a)
    quad = abs_a < 1.0
    value = np.where(quad, 0.5 * a * a, abs_a - 0.5)
    deriv = np.where(quad, a, np.sign(a))
    return value, deriv


def vf_terms(est, gt):
    """Smooth-L1 regression of est against gt: (summed value, gradient).

    Per pixel the residual is the L1 norm |du| + |dv| fed through one
    smooth-L1 evaluation (not per-component).
    """
    r = est - gt
    val, dval = smooth_l1(np.abs(r[..., 0]) + np.abs(r[..., 1]))
    return float(np.sum(val)), dval[..., None] * np.sign(r)


class ProxyTerms(NamedTuple):
    """Per-pixel proxy-voting quantities, each of shape (..., M)."""

    d: np.ndarray  # |cross| / |v|, the keypoint-to-line distance; 0 where invalid
    valid: np.ndarray  # |v| >= EPS_NORM
    loss: np.ndarray  # smooth-L1 of d; exactly 0 where invalid
    dloss: np.ndarray  # its derivative in d
    cross: np.ndarray  # v x (k - p)
    norm: np.ndarray  # |v| where valid, 1 elsewhere

    @property
    def value(self) -> float:
        return float(np.sum(self.loss))


def proxy_terms(est, off) -> ProxyTerms:
    """Distance from each keypoint to each pixel's direction line, and its loss."""
    n = np.hypot(est[..., 0], est[..., 1])
    valid = n >= EPS_NORM
    norm = np.where(valid, n, 1.0)
    cross = est[..., 0] * off[..., 1] - est[..., 1] * off[..., 0]
    d = np.where(valid, np.abs(cross) / norm, 0.0)
    loss, dloss = smooth_l1(d)
    return ProxyTerms(d, valid, loss, dloss, cross, norm)


def proxy_grad(est, off, pt: ProxyTerms):
    """Gradient of the proxy loss w.r.t. est, zero at invalid pixels.

    The analytic derivative through the |cross| / |v| quotient, including
    the normalization term.
    """
    s = np.sign(pt.cross)
    abs_cross = np.abs(pt.cross)
    n3 = pt.norm ** 3
    grad = np.stack(
        [pt.dloss * (s * off[..., 1] / pt.norm - abs_cross * est[..., 0] / n3),
         pt.dloss * (-s * off[..., 0] / pt.norm - abs_cross * est[..., 1] / n3)], axis=-1)
    return np.where(pt.valid[..., None], grad, 0.0)


def _check_dims(a, b, what):
    if a.shape[:2] != b.shape[:2]:
        raise DimensionMismatchError(f"{what}: {a.shape} vs {b.shape}")


def _scatter(mask, values):
    """(H, W, ...) zeros with the masked pixels set to values, (M, ...)."""
    out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    out[mask] = values
    return out


def _masked_proxy(est, mask, k):
    """Masked directions, keypoint offsets and proxy terms of an (H, W) field."""
    est = np.asarray(est, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_dims(est, mask[..., None], "est vs mask")
    est_m = est[mask]
    off = np.asarray(k, dtype=float) - pixel_centers(*mask.shape)[mask]
    return mask, est_m, off, proxy_terms(est_m, off)


def vf_loss(est, gt, mask) -> LossReport:
    """Smooth-L1 regression of the field against ground truth (see ``vf_terms``)."""
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_dims(est, gt, "est vs gt")
    _check_dims(est, mask[..., None], "est vs mask")
    value, grad = vf_terms(est[mask], gt[mask])
    return LossReport(value=value, grad=_scatter(mask, grad))


def proxy_distances(est, mask, k):
    """Normalized point-to-line distance d(p) per pixel, plus validity mask.

    Returns (d, valid, skipped): d is (H, W) with zeros where invalid;
    valid marks masked pixels with usable direction norms.
    """
    mask, _, _, pt = _masked_proxy(est, mask, k)
    return _scatter(mask, pt.d), _scatter(mask, pt.valid), int(np.count_nonzero(~pt.valid))


def dpvl(est, mask, k) -> LossReport:
    """Proxy-voting loss: smooth-L1 of the keypoint-to-line distance."""
    mask, est_m, off, pt = _masked_proxy(est, mask, k)
    return LossReport(value=pt.value, grad=_scatter(mask, proxy_grad(est_m, off, pt)),
                      skipped=int(np.count_nonzero(~pt.valid)))


def schedule_weights(epoch: int, sched: WeightSchedule = DEFAULT_SCHEDULE):
    """(alpha, beta) for a given epoch: geometric growth up to the caps."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    alpha = min(sched.alpha0 * sched.alpha_factor ** epoch, sched.alpha_cap)
    beta = min(sched.beta0 * sched.beta_factor ** epoch, sched.beta_cap)
    return alpha, beta
