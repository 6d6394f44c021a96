import warnings

import numpy as np
import pytest

from helpers import default_intrinsics, random_pose, rotation_angle
from proxyvote.errors import DegenerateInputError
from proxyvote.geometry import Intrinsics, Pose, project
from proxyvote.pnp import _control_points, reprojection_rmse, solve_epnp, umeyama

INTR = Intrinsics(320.0, 320.0, 160.0, 160.0)

CUBE = np.array([[x, y, z] for x in (0, 0.1) for y in (0, 0.1) for z in (0, 0.1)])


def noncoplanar_points(rng, n=8, scale=0.2):
    return rng.uniform(-scale, scale, (n, 3))


class TestUmeyama:
    def test_recovers_random_rigid_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pose = random_pose(rng)
            src = rng.normal(0, 1, (20, 3))
            dst = pose.apply(src)
            R, t = umeyama(src, dst)
            assert np.allclose(R, pose.rotation, atol=1e-9)
            assert np.allclose(t, pose.translation, atol=1e-9)

    def test_det_correction(self):
        # near-reflective noise must still yield a proper rotation
        rng = np.random.default_rng(1)
        src = rng.normal(0, 1, (10, 3))
        dst = -src  # point inversion is not a rotation of generic clouds
        R, _ = umeyama(src, dst)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


class TestSolveEpnp:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pose = random_pose(rng, t_scale=0.2, z_offset=2.0)
            pts = noncoplanar_points(rng)
            img = project(pose, INTR, pts)
            est = solve_epnp(pts, img, INTR)
            assert rotation_angle(est.rotation, pose.rotation) < 1e-6
            assert np.linalg.norm(est.translation - pose.translation) < 1e-6 * np.linalg.norm(pose.translation)

    def test_identity_cube(self):
        pose = Pose(np.eye(3), [0.0, 0.0, 1.0])
        img = project(pose, INTR, CUBE - 0.05)
        est = solve_epnp(CUBE - 0.05, img, INTR)
        assert reprojection_rmse(est, CUBE - 0.05, img, INTR) < 1e-6

    def test_noise_regression(self):
        # frozen Monte-Carlo bound: the closed-form solve stays within a
        # few pixels of 1 px noise
        rng = np.random.default_rng(3)
        sigma = 1.0
        raw = []
        for _ in range(100):
            pose = random_pose(rng, t_scale=0.2, z_offset=2.0)
            pts = noncoplanar_points(rng)
            img = project(pose, INTR, pts) + rng.normal(0, sigma, (len(pts), 2))
            est = solve_epnp(pts, img, INTR)
            raw.append(reprojection_rmse(est, pts, img, INTR))
        assert np.mean(raw) <= 6.0 * sigma

    def test_planar_configuration(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.2, 0.2, (10, 3))
        pts[:, 2] = 0.0
        pose = random_pose(rng, t_scale=0.1, z_offset=1.5)
        img = project(pose, INTR, pts)
        est = solve_epnp(pts, img, INTR)
        assert reprojection_rmse(est, pts, img, INTR) < 1e-4

    def test_planar_cloud_with_a_negative_eigenvalue(self):
        # a rotated planar cloud's smallest covariance eigenvalue rounds
        # below 0: the control points must not take its square root
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(-0.2, 0.2, (8, 2)), np.zeros(8)])
        pts = random_pose(rng, t_scale=0.1, z_offset=0.0).apply(pts)
        centered = pts - pts.mean(axis=0)
        assert np.linalg.eigvalsh(centered.T @ centered / len(pts))[0] < 0
        pose = random_pose(rng, t_scale=0.1, z_offset=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _control_points(pts).shape == (3, 3)
            est = solve_epnp(pts, project(pose, INTR, pts), INTR)
        assert rotation_angle(est.rotation, pose.rotation) < 1e-6
        assert np.allclose(est.translation, pose.translation, atol=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pose = random_pose(rng, t_scale=0.2, z_offset=2.0)
        pts = noncoplanar_points(rng)
        img = project(pose, INTR, pts)
        est1 = solve_epnp(pts, img, INTR)
        perm = rng.permutation(len(pts))
        est2 = solve_epnp(pts[perm], img[perm], INTR)
        assert rotation_angle(est1.rotation, est2.rotation) < 1e-6
        assert np.allclose(est1.translation, est2.translation, atol=1e-8)

    def test_rotation_always_proper(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pose = random_pose(rng, t_scale=0.2, z_offset=2.0)
            pts = noncoplanar_points(rng)
            img = project(pose, INTR, pts) + rng.normal(0, 2.0, (len(pts), 2))
            est = solve_epnp(pts, img, INTR)
            R = est.rotation
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError, match="need >= 4 correspondences, got 3"):
            solve_epnp(CUBE[:3], np.zeros((3, 2)), INTR)

    def test_mismatched_counts(self):
        with pytest.raises(DegenerateInputError, match="mismatched"):
            solve_epnp(CUBE, np.zeros((7, 2)), INTR)

    def test_coincident_object_points(self):
        with pytest.raises(DegenerateInputError, match="coincide"):
            solve_epnp(np.full((6, 3), 0.5), np.zeros((6, 2)), INTR)

    def test_case_putting_a_point_behind_the_camera_is_skipped(self):
        # 8 points in a 0.1 m cube at z = 0.6 m, 2 px noise: one scale
        # case's rigid fit puts a point behind the camera; another case
        # gives the pose
        Pw = np.array([[0.004, 0.0152, 0.0123], [0.0044, -0.0079, 0.039],
                       [0.0388, -0.0494, 0.0346], [-0.0339, 0.021, 0.0249],
                       [0.0017, -0.0024, 0.0407], [-0.0462, 0.0117, -0.0082],
                       [0.0495, 0.0324, 0.0389], [0.0143, 0.019, 0.0239]])
        U = np.array([[64.16, 67.25], [63.48, 61.03], [76.43, 53.26], [52.8, 69.74],
                      [64.87, 70.32], [48.4, 66.44], [76.97, 70.23], [67.21, 68.03]])
        intr = Intrinsics(160.0, 160.0, 64.0, 64.0)
        pose = solve_epnp(Pw, U, intr)
        assert np.all(pose.apply(Pw)[:, 2] > 0)
        assert np.isfinite(reprojection_rmse(pose, Pw, U, intr))


class TestReprojectionRmse:
    def test_exact_pose_zero(self):
        rng = np.random.default_rng(10)
        pose = random_pose(rng, t_scale=0.2, z_offset=2.0)
        pts = noncoplanar_points(rng)
        img = project(pose, INTR, pts)
        assert reprojection_rmse(pose, pts, img, INTR) == pytest.approx(0.0, abs=1e-12)

    def test_single_correspondence(self):
        pose = Pose(np.eye(3), [0, 0, 1.0])
        pt = np.array([[0.0, 0.0, 0.0]])
        img = np.array([[INTR.cx + 3.0, INTR.cy + 4.0]])
        assert reprojection_rmse(pose, pt, img, INTR) == pytest.approx(5.0)

    def test_axis_offset_matches_hand_computation(self):
        intr = default_intrinsics()
        pose_gt = Pose(np.eye(3), [0, 0, 1.0])
        pose_off = Pose(np.eye(3), [0, 0, 2.0])
        pt = np.array([[0.05, 0.0, 0.0]])
        img = project(pose_gt, intr, pt)
        # hand computation: x maps to fx*0.05/1 vs fx*0.05/2
        expect = intr.fx * 0.05 * (1.0 - 0.5)
        assert reprojection_rmse(pose_off, pt, img, intr) == pytest.approx(expect)
