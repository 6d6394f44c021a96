import numpy as np
import pytest

from oracles import oracle_fd_gradient, oracle_fd_scalar
from proxyvote.errors import DimensionMismatchError
from proxyvote.geometry import pixel_centers
from proxyvote.losses import (DEFAULT_SCHEDULE, WeightSchedule, dpvl, proxy_distances,
                              proxy_grad, proxy_terms, schedule_weights, smooth_l1,
                              vf_loss, vf_terms)


class TestSmoothL1:
    @pytest.mark.parametrize("a,val,der", [
        (0.5, 0.125, 0.5),
        (1.0, 0.5, 1.0),
        (-3.0, 2.5, -1.0),
        (0.0, 0.0, 0.0),
    ])
    def test_values(self, a, val, der):
        v, d = smooth_l1(a)
        assert v == pytest.approx(val)
        assert d == pytest.approx(der)

    def test_derivative_matches_fd(self):
        for a in [0.5, -0.7, 2.3, -4.0, 0.2]:
            _, d = smooth_l1(a)
            fd = oracle_fd_scalar(lambda x: float(smooth_l1(x)[0]), a)
            assert d == pytest.approx(fd, abs=1e-6)


class TestVfLoss:
    def test_perfect_field(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(0, 1, (6, 6, 2))
        mask = np.ones((6, 6), bool)
        rep = vf_loss(gt, gt, mask)
        assert rep.value == 0.0
        assert np.all(rep.grad == 0.0)

    def test_single_pixel_quadratic_branch(self):
        est = np.zeros((1, 1, 2))
        gt = np.zeros((1, 1, 2))
        est[0, 0] = [0.6, 0.3]
        gt[0, 0] = [1.0, 0.0]
        rep = vf_loss(est, gt, np.ones((1, 1), bool))
        assert rep.value == pytest.approx(0.245)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(2)
        mask = rng.random((8, 8)) < 0.7
        est = rng.normal(0, 1, (8, 8, 2))
        gt = rng.normal(0, 1, (8, 8, 2))
        rep = vf_loss(est, gt, mask)
        fd = oracle_fd_gradient(lambda f: vf_loss(f, gt, mask).value, est, mask)
        # skip branch-boundary and sign-kink pixels
        a = np.abs(est - gt).sum(axis=-1)
        smooth = mask & (np.abs(a - 1.0) > 1e-3) & np.all(np.abs(est - gt) > 1e-3, axis=-1)
        rel = np.abs(rep.grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel[smooth].max() < 1e-4

    def test_zero_outside_mask(self):
        rng = np.random.default_rng(3)
        mask = np.zeros((4, 4), bool)
        mask[1, 2] = True
        rep = vf_loss(rng.normal(0, 1, (4, 4, 2)), rng.normal(0, 1, (4, 4, 2)), mask)
        grad_off = rep.grad[~mask]
        assert np.all(grad_off == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vf_loss(np.zeros((4, 4, 2)), np.zeros((5, 4, 2)), np.ones((4, 4), bool))


class TestDpvl:
    def test_axis_aligned_linear_branch(self):
        # pixel center (0.5, 0.5), direction (1, 0), keypoint straight above
        est = np.zeros((1, 1, 2))
        est[0, 0] = [1.0, 0.0]
        mask = np.ones((1, 1), bool)
        k = np.array([0.5, 5.5])  # distance 5 from the line y = 0.5
        rep = dpvl(est, mask, k)
        assert rep.value == pytest.approx(4.5)

    def test_exact_field_zero(self):
        from helpers import disc_mask, exact_field

        mask = disc_mask(16, 16, center=(8, 8), radius=6)
        k = np.array([3.2, 11.7])
        rep = dpvl(exact_field(mask, k), mask, k)
        assert rep.value == pytest.approx(0.0, abs=1e-18)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(4)
        mask = rng.random((8, 8)) < 0.7
        est = rng.normal(0, 1, (8, 8, 2))
        k = rng.uniform(0, 8, 2)
        rep = dpvl(est, mask, k)
        fd = oracle_fd_gradient(lambda f: dpvl(f, mask, k).value, est, mask)
        d, valid, _ = proxy_distances(est, mask, k)
        smooth = valid & (np.abs(d - 1.0) > 1e-3) & (d > 1e-3)
        rel = np.abs(rep.grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel[smooth].max() < 1e-4

    def test_sign_and_scale_invariance_of_value(self):
        rng = np.random.default_rng(5)
        mask = rng.random((8, 8)) < 0.8
        est = rng.normal(0, 1, (8, 8, 2))
        k = np.array([4.4, 2.2])
        base = dpvl(est, mask, k).value
        flip = rng.random((8, 8, 1)) < 0.5
        assert dpvl(np.where(flip, -est, est), mask, k).value == pytest.approx(base, rel=1e-12)
        scale = rng.uniform(0.2, 5.0, (8, 8, 1))
        assert dpvl(est * scale, mask, k).value == pytest.approx(base, rel=1e-9)

    def test_degenerate_pixels_skipped_not_fatal(self):
        est = np.zeros((2, 2, 2))
        est[0, 0] = [1.0, 0.0]
        mask = np.ones((2, 2), bool)
        rep = dpvl(est, mask, np.array([10.0, 10.0]))
        assert rep.skipped == 3
        assert np.isfinite(rep.value)
        assert np.all(rep.grad[0, 1] == 0.0)

    def test_degenerate_pixels_add_nothing(self):
        # lengths just over and just under EPS_NORM (1e-8), and an exact zero
        est = np.zeros((2, 2, 2))
        est[0, 0] = [1.0, 0.0]
        est[0, 1] = [0.0, 2e-8]
        est[1, 0] = [5e-9, 0.0]
        mask = np.ones((2, 2), bool)
        k = np.array([10.0, 10.0])
        d, valid, skipped = proxy_distances(est, mask, k)
        assert valid.tolist() == [[True, True], [False, False]] and skipped == 2
        assert np.all(d[~valid] == 0.0)
        alone = dpvl(est[:1], mask[:1], k).value  # the two valid pixels only
        assert dpvl(est, mask, k).value == alone == sum(smooth_l1(d[0])[0])


class TestMaskedCore:
    def test_batch_axis_matches_per_field_losses(self):
        # one (K, M, 2) call, as the trainer makes it, equals K (H, W) calls
        rng = np.random.default_rng(6)
        mask = rng.random((8, 8)) < 0.7
        est = rng.normal(0, 1, (3, 8, 8, 2))
        gt = rng.normal(0, 1, (3, 8, 8, 2))
        ks = rng.uniform(0, 8, (3, 2))
        off = ks[:, None, :] - pixel_centers(8, 8)[mask]
        l_vf, g_vf = vf_terms(est[:, mask], gt[:, mask])
        pt = proxy_terms(est[:, mask], off)
        g_pv = proxy_grad(est[:, mask], off, pt)
        vfs = [vf_loss(est[i], gt[i], mask) for i in range(3)]
        pvs = [dpvl(est[i], mask, ks[i]) for i in range(3)]
        assert l_vf == pytest.approx(sum(r.value for r in vfs), rel=1e-12)
        assert pt.value == pytest.approx(sum(r.value for r in pvs), rel=1e-12)
        for i in range(3):
            assert np.array_equal(g_vf[i], vfs[i].grad[mask])
            assert np.array_equal(g_pv[i], pvs[i].grad[mask])


class TestSchedule:
    def test_epoch_zero(self):
        a, b = schedule_weights(0)
        assert a == pytest.approx(DEFAULT_SCHEDULE.alpha0)
        assert b == pytest.approx(1e-3)

    def test_epoch_one(self):
        a, b = schedule_weights(1)
        assert a == pytest.approx(DEFAULT_SCHEDULE.alpha0 * 1.1)
        assert b == pytest.approx(1.5e-3)

    def test_caps(self):
        a, b = schedule_weights(500)
        assert a == pytest.approx(10.0)
        assert b == pytest.approx(1e-2)

    def test_monotone(self):
        prev = schedule_weights(0)
        for e in range(1, 60):
            cur = schedule_weights(e)
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            WeightSchedule(alpha_factor=0.5)
