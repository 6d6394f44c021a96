import numpy as np
import pytest

from helpers import random_pose
from proxyvote import metrics
from proxyvote.errors import DegenerateInputError
from proxyvote.geometry import Intrinsics, Pose
from proxyvote.metrics import (add_s_score, add_score, evaluate, judge,
                               proj2d_error)
from proxyvote.model_tools import ModelCloud

INTR = Intrinsics(100.0, 100.0, 64.0, 64.0)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


class TestAdd:
    def test_identical_poses(self):
        rng = np.random.default_rng(0)
        pose = random_pose(rng)
        pts = rng.normal(0, 1, (50, 3))
        assert add_score(pose, pose, pts) == 0.0

    def test_pure_translation_offset(self):
        rng = np.random.default_rng(1)
        R = random_pose(rng).rotation
        gt = Pose(R, [0.0, 0.0, 1.0])
        est = Pose(R, [0.01, 0.0, 1.0])
        pts = rng.normal(0, 1, (30, 3))
        assert add_score(gt, est, pts) == pytest.approx(0.01)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        gt, est = random_pose(rng), random_pose(rng)
        pts = rng.normal(0, 1, (100, 3))
        want = np.mean([np.linalg.norm(gt.apply(p) - est.apply(p)) for p in pts])
        assert add_score(gt, est, pts) == pytest.approx(want, rel=1e-12)

    def test_empty_raises(self):
        pose = Pose(np.eye(3), [0, 0, 1.0])
        with pytest.raises(DegenerateInputError, match="empty point set"):
            add_score(pose, pose, np.empty((0, 3)))

    def test_symmetric_in_poses(self):
        rng = np.random.default_rng(3)
        gt, est = random_pose(rng), random_pose(rng)
        pts = rng.normal(0, 1, (40, 3))
        assert add_score(gt, est, pts) == pytest.approx(add_score(est, gt, pts))


class TestAddS:
    def test_identical_poses(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng)
        pts = rng.normal(0, 1, (50, 3))
        assert add_s_score(pose, pose, pts) == 0.0

    def test_never_exceeds_add(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            gt, est = random_pose(rng), random_pose(rng)
            pts = rng.normal(0, 1, (25, 3))
            assert add_s_score(gt, est, pts) <= add_score(gt, est, pts) + 1e-12

    def test_symmetric_square_rotation(self):
        # square rotated by its symmetry angle: ADD-S = 0 while ADD > 0
        square = np.array([[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]], dtype=float)
        gt = Pose(np.eye(3), [0, 0, 2.0])
        est = Pose(rot_z(np.pi / 2), [0, 0, 2.0])
        assert add_s_score(gt, est, square) == pytest.approx(0.0, abs=1e-12)
        assert add_score(gt, est, square) > 0.5

    def test_asymmetric_counterexample(self):
        # a cloud and pose pair where swapping gt/est changes ADD-S
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1, (4, 3))
        gt = Pose(np.eye(3), [0, 0, 2.0])
        est = Pose(rot_z(rng.uniform(0.3, 1.0)), rng.normal(0, 0.3, 3) + [0, 0, 2])
        ab = add_s_score(gt, est, pts)
        ba = add_s_score(est, gt, pts)
        assert ab != pytest.approx(ba, rel=1e-6)

    def test_empty_raises(self):
        pose = Pose(np.eye(3), [0, 0, 1.0])
        with pytest.raises(DegenerateInputError, match="empty point set"):
            add_s_score(pose, pose, np.empty((0, 3)))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        gt, est = random_pose(rng), random_pose(rng)
        pts = rng.normal(0, 1, (20, 3))
        gt_pts = gt.apply(pts)
        est_pts = est.apply(pts)
        want = np.mean([min(np.linalg.norm(g - e) for e in est_pts) for g in gt_pts])
        assert add_s_score(gt, est, pts) == pytest.approx(want, rel=1e-12)


class TestProj2d:
    def test_identical_poses(self):
        rng = np.random.default_rng(7)
        pose = random_pose(rng, t_scale=0.2, z_offset=2.0)
        pts = rng.normal(0, 0.1, (20, 3))
        assert proj2d_error(pose, pose, pts, INTR) == 0.0

    def test_known_pixel_offset(self):
        gt = Pose(np.eye(3), [0.0, 0.0, 1.0])
        est = Pose(np.eye(3), [0.02, 0.0, 1.0])
        pts = np.zeros((5, 3))
        # all projections shift by fx * 0.02 / 1
        assert proj2d_error(gt, est, pts, INTR) == pytest.approx(2.0)

    def test_single_point(self):
        gt = Pose(np.eye(3), [0.0, 0.0, 1.0])
        est = Pose(np.eye(3), [0.0, 0.03, 1.0])
        pt = np.array([[0.0, 0.0, 0.0]])
        assert proj2d_error(gt, est, pt, INTR) == pytest.approx(3.0)

    def test_empty_raises(self):
        pose = Pose(np.eye(3), [0, 0, 1.0])
        with pytest.raises(DegenerateInputError, match="empty point set"):
            proj2d_error(pose, pose, np.empty((0, 3)), INTR)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        gt = random_pose(rng, t_scale=0.1, z_offset=2.0)
        est = random_pose(rng, t_scale=0.1, z_offset=2.0)
        pts = rng.normal(0, 0.1, (15, 3))
        perm = rng.permutation(15)
        assert proj2d_error(gt, est, pts, INTR) == pytest.approx(
            proj2d_error(gt, est, pts[perm], INTR))


class TestJudge:
    def test_strictly_below_thresholds(self):
        add_ok, proj_ok = judge(0.099, 1.0, 4.999)
        assert add_ok and proj_ok

    def test_boundaries_are_incorrect(self):
        add_ok, proj_ok = judge(0.1, 1.0, 5.0)
        assert not add_ok and not proj_ok

    def test_zero_add(self):
        assert judge(0.0, 1.0, 10.0)[0]

    def test_bad_diameter(self):
        with pytest.raises(ValueError):
            judge(0.1, 0.0, 1.0)


def test_evaluate_record_consistency():
    rng = np.random.default_rng(9)
    gt = random_pose(rng, t_scale=0.1, z_offset=2.0)
    est = random_pose(rng, t_scale=0.1, z_offset=2.0)
    pts = rng.normal(0, 0.1, (30, 3))
    rec = evaluate(gt, est, ModelCloud(pts, symmetric=True), INTR, diameter=1.0)
    assert rec.add_s <= rec.add + 1e-12
    assert rec.add >= 0 and rec.proj2d >= 0
    assert rec.add_correct == (rec.add < 0.1)
    assert rec.add_s_correct == (rec.add_s < 0.1)
    assert rec.proj_correct == (rec.proj2d < 5.0)


def test_evaluate_judges_add_s_by_the_add_rule():
    # a half-turn about the axis of a ring: ADD fails, ADD-S passes
    angles = np.arange(8) * np.pi / 4
    ring = 0.1 * np.column_stack([np.cos(angles), np.sin(angles), np.zeros(8)])
    gt = Pose(np.eye(3), [0.0, 0.0, 2.0])
    est = Pose(rot_z(np.pi), [0.0, 0.0, 2.0])
    rec = evaluate(gt, est, ModelCloud(ring, symmetric=True), INTR, diameter=0.2)
    assert rec.add == pytest.approx(0.2)
    assert rec.add_s_correct and not rec.add_correct
    assert rec.add_s_correct == (rec.add_s < 0.1 * 0.2)


def test_evaluate_scores_add_s_only_for_a_symmetric_cloud(monkeypatch):
    rng = np.random.default_rng(10)
    gt = random_pose(rng, t_scale=0.1, z_offset=2.0)
    est = random_pose(rng, t_scale=0.1, z_offset=2.0)
    pts = rng.normal(0, 0.1, (30, 3))
    sym = evaluate(gt, est, ModelCloud(pts, symmetric=True), INTR, diameter=1.0)

    def unused(*args):
        raise AssertionError("ADD-S scored for a non-symmetric cloud")

    monkeypatch.setattr(metrics, "add_s_score", unused)
    rec = evaluate(gt, est, ModelCloud(pts), INTR, diameter=1.0)
    assert np.isnan(rec.add_s) and not rec.add_s_correct
    assert (rec.add, rec.proj2d, rec.add_correct, rec.proj_correct) == \
        (sym.add, sym.proj2d, sym.add_correct, sym.proj_correct)
