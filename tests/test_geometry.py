import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pose
from oracles import oracle_line_distance, oracle_project
from proxyvote.errors import BehindCameraError, DegenerateInputError
from proxyvote.geometry import Intrinsics, Pose, pixel_centers, point_line_distance, project

coord = st.floats(-100, 100, allow_nan=False)


class TestPointLineDistance:
    def test_perpendicular_axis(self):
        assert point_line_distance((0, 0), (1, 0), (0, 5)) == pytest.approx(5.0)

    def test_point_on_line(self):
        p, k = np.array([0.0, 0.0]), np.array([7.0, 2.0])
        assert point_line_distance(p, k - p, k) == pytest.approx(0.0, abs=1e-12)

    def test_against_scan_oracle(self):
        p, v, k = (2.0, 3.0), (2.0, 1.0), (6.0, 9.0)
        analytic = point_line_distance(p, v, k)
        scanned = oracle_line_distance(p, v, k)
        assert scanned >= analytic - 1e-9
        assert scanned - analytic < 1e-4

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateInputError):
            point_line_distance((0, 0), (1e-12, 0), (1, 1))

    def test_sine_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p, k = rng.normal(0, 30, (2, 2))
            v = rng.normal(0, 2, 2)
            if np.linalg.norm(v) < 1e-6 or np.linalg.norm(k - p) < 1e-6:
                continue
            d = point_line_distance(p, v, k)
            cosang = np.dot(v, k - p) / (np.linalg.norm(v) * np.linalg.norm(k - p))
            expect = np.linalg.norm(k - p) * np.sqrt(max(1 - cosang ** 2, 0.0))
            assert d == pytest.approx(expect, abs=1e-9)

    @given(px=coord, py=coord, vx=coord, vy=coord, kx=coord, ky=coord,
           c=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_and_sign_symmetry(self, px, py, vx, vy, kx, ky, c):
        v = np.array([vx, vy])
        # keep both v and c*v clear of the degeneracy epsilon
        if np.linalg.norm(v) < 1e-6 or c * np.linalg.norm(v) < 1e-7:
            return
        d = point_line_distance((px, py), v, (kx, ky))
        assert point_line_distance((px, py), c * v, (kx, ky)) == pytest.approx(d, abs=1e-9, rel=1e-9)
        assert point_line_distance((px, py), -v, (kx, ky)) == d

    def test_monotone_in_pixel_distance(self):
        # fixed angular error, growing |k - p|
        theta = 0.3
        v = np.array([np.cos(theta), np.sin(theta)])
        prev = -1.0
        for r in [1, 2, 5, 10, 50]:
            d = point_line_distance((0, 0), v, (r, 0.0))
            assert d > prev
            prev = d


class TestProject:
    def setup_method(self):
        self.intr = Intrinsics(100, 100, 64, 64)
        self.pose = Pose(np.eye(3), [0, 0, 1.0])

    def test_optical_axis(self):
        assert np.allclose(project(self.pose, self.intr, [0, 0, 0]), [64, 64])

    def test_similar_triangles(self):
        assert np.allclose(project(self.pose, self.intr, [0.1, 0, 0]), [74, 64])

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project(self.pose, self.intr, [0, 0, -2.0])

    def test_against_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pose = random_pose(rng, t_scale=0.3, z_offset=3.0)
            X = rng.normal(0, 0.5, 3)
            if pose.apply(X)[2] <= 0:
                continue
            got = project(pose, self.intr, X)
            want = oracle_project(pose.rotation, pose.translation,
                                  self.intr.fx, self.intr.fy,
                                  self.intr.cx, self.intr.cy, X)
            assert np.allclose(got, want, atol=1e-9)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.01, [0, 0, 0])

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), [0, 0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Pose(np.eye(3), [0.0, np.nan, 1.0])


def test_intrinsics_requires_positive_focals():
    with pytest.raises(ValueError):
        Intrinsics(0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_intrinsics_requires_finite_values(value):
    with pytest.raises(ValueError, match="non-finite"):
        Intrinsics(80.0, 80.0, value, 32.0)


class TestPixelCenters:
    def test_set_pixels_in_row_major_order(self):
        mask = np.array([[False, True, True], [True, False, False]])
        assert np.array_equal(pixel_centers(mask), [[1.5, 0.5], [2.5, 0.5], [0.5, 1.5]])
        assert pixel_centers(np.zeros((2, 3), dtype=bool)).shape == (0, 2)
