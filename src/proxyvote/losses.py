"""Loss terms for vector-field keypoint regression with analytic gradients.
Only the formulas live here; ``trainer.py`` weights them per epoch.

The core, ``PlanarLosses``, works on component-planar masked-pixel
arrays: est and gt are (2, ...) directions of masked pixels, plane 0
holding the x and plane 1 the y components, and off = k - p the (2, ...)
offsets from each pixel centre p to its keypoint k. The axes after the
first are free; the trainer passes (2, K, M) arrays, all keypoints at
once. So every x/y step runs on contiguous planes, with no strided view
and no ``np.stack``. Intermediates go into buffers that a
``PlanarLosses`` allocates once for its shape and overwrites on every
call, so a fit allocates them once, not once per iteration. Values are
sums (not means); any per-pixel normalization is the caller's business.
``vf_loss``, ``dpvl`` and ``proxy_distances`` apply the core to
(H, W, 2) fields and (H, W) masks, with per-pixel results zero outside
the mask.

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

import numpy as np

from .errors import DimensionMismatchError
from .geometry import EPS_NORM, pixel_centers


@dataclass
class LossReport:
    """Scalar loss plus the per-pixel gradient w.r.t. the estimated field."""

    value: float
    grad: np.ndarray  # (H, W, 2), zero outside the mask
    skipped: int = 0  # masked pixels dropped for near-zero direction


def _smooth_l1_into(abs_a, value, c):
    """Smooth-L1 of a into value and c = min(|a|, 1) into c, given
    abs_a = |a|; the derivative is copysign(c, a)."""
    np.minimum(abs_a, 1.0, out=c)
    np.multiply(c, 0.5, out=value)
    np.subtract(abs_a, value, out=value)
    np.multiply(value, c, out=value)  # c (|a| - c/2)


def smooth_l1(a):
    """Smooth-L1 of a (elementwise): value and derivative.

    0.5 a^2 on |a| < 1, |a| - 0.5 otherwise; derivative a resp. sign(a).
    """
    a = np.asarray(a, dtype=float)
    value, deriv = np.empty_like(a), np.empty_like(a)
    _smooth_l1_into(np.abs(a), value, deriv)
    np.copysign(deriv, a, out=deriv)
    return value, deriv


class PlanarLosses:
    """Regression and proxy-voting losses of planar (2, *shape) fields.

    Results stay in the buffers until the next call overwrites them:
    ``vf`` leaves the regression gradient in ``vf_grad``; ``proxy``
    leaves, each of the given shape, ``d`` (|cross| / |v|, the
    keypoint-to-line distance; 0 where invalid), ``valid``
    (|v| >= EPS_NORM), ``loss`` (exactly 0 where invalid), ``dloss`` (its
    derivative in d), ``cross`` (v x (k - p)), ``abs_cross`` and ``norm``
    (|v| where valid, 1 elsewhere), plus the counts ``n_valid`` and
    ``skipped``. ``proxy_grad`` then needs only est and off.
    """

    def __init__(self, shape):
        shape = tuple(shape)
        self.vf_grad = np.empty((2,) + shape)
        self.pv_grad = np.empty((2,) + shape)
        self._pair = np.empty((2,) + shape)
        self.d, self.loss, self.dloss, self.cross, self.abs_cross, self.norm = (
            np.empty(shape) for _ in range(6))
        self._a, self._value, self._deriv = (np.empty(shape) for _ in range(3))
        self.valid = np.empty(shape, dtype=bool)
        self.n_valid = 0

    @property
    def skipped(self) -> int:
        """Pixels of the last ``proxy`` call dropped for near-zero direction."""
        return self.valid.size - self.n_valid

    def vf(self, est, gt) -> float:
        """Smooth-L1 regression of est against gt; the summed value.

        Per pixel the residual is the L1 norm |du| + |dv| fed through one
        smooth-L1 evaluation (not per-component).
        """
        r, a, deriv = self.vf_grad, self._a, self._deriv
        np.subtract(est, gt, out=r)
        np.abs(r, out=self._pair)
        np.add(self._pair[0], self._pair[1], out=a)
        # a >= 0 is its own |a|, so the derivative is c itself
        _smooth_l1_into(a, self._value, deriv)
        zero = None if r.all() else r == 0
        np.copysign(deriv, r, out=r)  # deriv * sign(r) ...
        if zero is not None:
            r[zero] = 0.0  # ... which is +0 at r = ±0
        return float(self._value.sum())

    def proxy(self, est, off) -> float:
        """Distance from each keypoint to each pixel's direction line, and
        its summed smooth-L1 loss."""
        norm, valid, cross, d = self.norm, self.valid, self.cross, self.d
        np.hypot(est[0], est[1], out=norm)
        np.greater_equal(norm, EPS_NORM, out=valid)
        self.n_valid = int(np.count_nonzero(valid))
        if self.skipped:
            np.copyto(norm, 1.0, where=~valid)
        np.multiply(est, off[::-1], out=self._pair)  # (v_x o_y, v_y o_x)
        np.subtract(self._pair[0], self._pair[1], out=cross)
        np.abs(cross, out=self.abs_cross)
        np.divide(self.abs_cross, norm, out=d)
        if self.skipped:
            np.copyto(d, 0.0, where=~valid)
        # d = |cross| / |v| >= +0 is its own |d|, so the derivative is c itself
        _smooth_l1_into(d, self.loss, self.dloss)
        return float(self.loss.sum())

    def proxy_grad(self, est, off):
        """Gradient of the last ``proxy`` loss w.r.t. est, zero at invalid
        pixels, in ``pv_grad``.

        The analytic derivative through the |cross| / |v| quotient,
        including the normalization term.
        """
        g, t, n3 = self.pv_grad, self._pair, self._a
        s = g[0]
        np.copysign(1.0, self.cross, out=s)  # sign(cross) ...
        if not self.cross.all():
            s[self.cross == 0] = 0.0  # ... which is +0 at cross = ±0
        np.negative(s, out=g[1])
        np.multiply(g, off[::-1], out=g)  # (s o_y, -s o_x)
        np.divide(g, self.norm, out=g)
        np.power(self.norm, 3, out=n3)
        np.multiply(self.abs_cross, est, out=t)
        np.divide(t, n3, out=t)
        np.subtract(g, t, out=g)
        np.multiply(self.dloss, g, out=g)
        if self.skipped:
            np.copyto(g, 0.0, where=~self.valid)
        return g

    def mean_proxy_dist(self) -> float:
        """Mean of d over the valid pixels of the last ``proxy`` call."""
        d = self.d[self.valid] if self.skipped else self.d
        return float(d.sum()) / max(self.n_valid, 1)


def planar(a):
    """(..., 2) values as a contiguous component-planar (2, ...) array."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _check_dims(a, b, what):
    if a.shape[:2] != b.shape[:2]:
        raise DimensionMismatchError(f"{what}: {a.shape} vs {b.shape}")


def _scatter(mask, values):
    """(H, W, ...) zeros with the masked pixels set to values, (M, ...)."""
    out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    out[mask] = values
    return out


def _masked_proxy(est, mask, k):
    """Planar masked directions and keypoint offsets of an (H, W) field,
    with their proxy terms computed."""
    est = np.asarray(est, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_dims(est, mask[..., None], "est vs mask")
    est_m = planar(est[mask])
    off = planar(np.asarray(k, dtype=float) - pixel_centers(*mask.shape)[mask])
    losses = PlanarLosses(est_m.shape[1:])
    value = losses.proxy(est_m, off)
    return mask, est_m, off, losses, value


def vf_loss(est, gt, mask) -> LossReport:
    """Smooth-L1 regression of the field against ground truth (see ``PlanarLosses.vf``)."""
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    _check_dims(est, gt, "est vs gt")
    _check_dims(est, mask[..., None], "est vs mask")
    est_m = planar(est[mask])
    losses = PlanarLosses(est_m.shape[1:])
    value = losses.vf(est_m, planar(gt[mask]))
    return LossReport(value=value, grad=_scatter(mask, losses.vf_grad.T))


def proxy_distances(est, mask, k):
    """Normalized point-to-line distance d(p) per pixel, plus validity mask.

    Returns (d, valid, skipped): d is (H, W) with zeros where invalid;
    valid marks masked pixels with usable direction norms.
    """
    mask, _, _, losses, _ = _masked_proxy(est, mask, k)
    return _scatter(mask, losses.d), _scatter(mask, losses.valid), losses.skipped


def dpvl(est, mask, k) -> LossReport:
    """Proxy-voting loss: smooth-L1 of the keypoint-to-line distance."""
    mask, est_m, off, losses, value = _masked_proxy(est, mask, k)
    return LossReport(value=value, grad=_scatter(mask, losses.proxy_grad(est_m, off).T),
                      skipped=losses.skipped)
