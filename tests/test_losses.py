import numpy as np
import pytest

from oracles import (oracle_fd_gradient, oracle_fd_scalar, oracle_field_terms,
                     oracle_smooth_l1)
from proxyvote.errors import DegenerateInputError
from proxyvote.geometry import pixel_centers
from proxyvote.losses import (dpvl, planar, proxy_distances, proxy_grad, proxy_terms,
                              smooth_l1, vf_loss, vf_terms)


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

    def test_bit_equal_to_two_branch_form(self):
        sub = np.finfo(float).smallest_subnormal
        normal = np.finfo(float).tiny
        a = np.array([0.0, -0.0, sub, -sub, 3 * sub, normal, -1.5 * normal, 1e-160,
                      1 - 2 ** -53, -(1 - 2 ** -53), 1.0, -1.0, 1 + 2 ** -52, 0.5, -3.0,
                      1e308, np.inf, -np.inf, np.nan, -np.nan])
        value, deriv = smooth_l1(a)
        with np.errstate(over="ignore"):
            want_value, want_deriv = oracle_smooth_l1(a)
        assert np.array_equal(value.view(np.uint64), want_value.view(np.uint64))
        assert np.array_equal(deriv.view(np.uint64), want_deriv.view(np.uint64))
        assert np.signbit(deriv[1]) and np.signbit(deriv[-1])


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
        with pytest.raises(DegenerateInputError, match=r"\(4, 4, 2\) vs \(5, 4, 2\)"):
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
        # one planar (2, K, M) call, as the trainer makes it, equals K (H, W) calls
        rng = np.random.default_rng(6)
        mask = rng.random((8, 8)) < 0.7
        est = rng.normal(0, 1, (3, 8, 8, 2))
        gt = rng.normal(0, 1, (3, 8, 8, 2))
        ks = rng.uniform(0, 8, (3, 2))
        est_p, gt_p = planar(est[:, mask]), planar(gt[:, mask])
        off = planar(ks[:, None, :] - pixel_centers(mask))
        l_vf, g_vf = vf_terms(est_p, gt_p)
        pt = proxy_terms(est_p, off)
        l_pv, g_pv = pt.value, proxy_grad(est_p, off, pt)
        vfs = [vf_loss(est[i], gt[i], mask) for i in range(3)]
        pvs = [dpvl(est[i], mask, ks[i]) for i in range(3)]
        assert l_vf == pytest.approx(sum(r.value for r in vfs), rel=1e-12)
        assert l_pv == pytest.approx(sum(r.value for r in pvs), rel=1e-12)
        for i in range(3):
            assert np.array_equal(g_vf[:, i].T, vfs[i].grad[mask])
            assert np.array_equal(g_pv[:, i].T, pvs[i].grad[mask])


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestTwoBranchParity:
    def test_public_losses_match_bit_for_bit(self):
        # random pixels plus zero and near-EPS_NORM directions, directions
        # along k - p (cross exactly 0) and residuals exactly 0
        rng = np.random.default_rng(7)
        mask = rng.random((12, 12)) < 0.8
        ii, jj = np.nonzero(mask)
        k = np.array([5.3, 7.9])
        est = rng.normal(0, 1, (12, 12, 2))
        gt = rng.normal(0, 1, (12, 12, 2))
        for p, vec in enumerate([[0.0, 0.0], [-0.0, -0.0], [5e-9, 0.0], [1e-8, 0.0],
                                 [0.0, 2e-8], [5e-324, -0.0]]):
            est[ii[p], jj[p]] = vec
        for p, scale in zip(range(10, 14), (1.0, -1.0, 3.0, -0.5)):
            est[ii[p], jj[p]] = scale * (k - [jj[p] + 0.5, ii[p] + 0.5])
        gt[ii[20:23], jj[20:23]] = est[ii[20:23], jj[20:23]]
        gt[ii[23], jj[23], 1] = est[ii[23], jj[23], 1]
        est[ii[24], jj[24], 0], gt[ii[24], jj[24], 0] = -0.0, 0.0
        want = oracle_field_terms(est[mask], gt[mask], k - pixel_centers(mask))

        vf, pv = vf_loss(est, gt, mask), dpvl(est, mask, k)
        d, valid, _ = proxy_distances(est, mask, k)
        assert np.array_equal(bits(vf.grad[mask]), bits(want["g_vf"]))
        assert np.array_equal(bits(pv.grad[mask]), bits(want["g_pv"]))
        assert np.array_equal(bits(d[mask]), bits(want["d"]))
        assert np.array_equal(valid[mask], want["valid"])
        assert bits(vf.value) == bits(np.sum(want["vf"]))
        assert bits(pv.value) == bits(np.sum(want["pv"]))


class TestPlanarParity:
    def test_degenerate_pixels(self):
        # the core on a planar (2, K, M) stack, as the trainer calls it,
        # against the two-branch oracle: zero and near-EPS_NORM directions
        # (invalid pixels), directions along k - p (cross exactly ±0 at a
        # valid pixel) and components equal to the ground truth (residual ±0)
        rng = np.random.default_rng(8)
        mask = rng.random((10, 10)) < 0.8
        n_kp = 3
        off = rng.uniform(0, 10, (n_kp, 1, 2)) - pixel_centers(mask)  # (K, M, 2)
        est = rng.normal(0, 1, off.shape)
        gt = rng.normal(0, 1, off.shape)
        tiny = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1e-8, 0.0],
                [0.0, 2e-8], [5e-9, 0.0], [-7e-9, 7e-9], [5e-324, 0.0]]
        for ki in range(n_kp):
            est[ki, ki:ki + len(tiny)] = tiny
            est[ki, 20:23] = np.array([[1.0], [-1.0], [0.25]]) * off[ki, 20:23]
            gt[ki, 30:33] = est[ki, 30:33]
            gt[ki, 33, 0] = est[ki, 33, 0]
            est[ki, 34, 1], gt[ki, 34, 1] = -0.0, 0.0
        want = oracle_field_terms(est, gt, off)

        l_vf, g_vf = vf_terms(planar(est), planar(gt))
        pt = proxy_terms(planar(est), planar(off))
        g_pv = proxy_grad(planar(est), planar(off), pt)
        assert pt.skipped == 7 * n_kp  # 1e-8 is EPS_NORM itself, so valid
        assert np.array_equal(pt.cross[:, 20:23] == 0, np.ones((n_kp, 3), bool))
        assert np.array_equal(bits(g_vf), bits(planar(want["g_vf"])))
        assert np.array_equal(bits(g_pv), bits(planar(want["g_pv"])))
        assert np.array_equal(bits(pt.d), bits(want["d"]))
        assert np.array_equal(pt.valid, want["valid"])
        assert bits(l_vf) == bits(np.sum(want["vf"]))
        assert bits(pt.value) == bits(np.sum(want["pv"]))
        mean = float(np.sum(want["d"][want["valid"]])) / np.count_nonzero(want["valid"])
        assert bits(pt.mean_dist()) == bits(mean)
