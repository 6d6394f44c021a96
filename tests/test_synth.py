import numpy as np
import pytest

from dataclasses import replace

from helpers import cube_cloud, default_intrinsics, make_cube_scene
from oracles import oracle_ideal_fields, oracle_splat_mask
from proxyvote.errors import ConfigurationError, ModelLoadError
from proxyvote.geometry import pixel_centers, project
from proxyvote.synth import (NoiseSpec, PoseRanges, _fmt, _ideal_fields, _splat_mask, corrupt,
                             load_scene, sample_pose, save_scene)


@pytest.fixture(scope="module")
def scene():
    return make_cube_scene(seed=3)


class TestSamplePose:
    def test_projections_respect_margin(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        ranges = PoseRanges(z_range=(0.45, 0.7))
        for seed in range(10):
            pose = sample_pose(seed, ranges, cloud, intr, 64, 64)
            proj = project(pose, intr, cloud.points)
            assert proj.min() >= ranges.margin
            assert proj.max() <= 64 - ranges.margin

    def test_deterministic_per_seed(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        ranges = PoseRanges(z_range=(0.45, 0.7))
        a = sample_pose(5, ranges, cloud, intr, 64, 64)
        b = sample_pose(5, ranges, cloud, intr, 64, 64)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_impossible_range_raises(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        # object too close: it cannot fit inside a 64 px frame
        with pytest.raises(ConfigurationError):
            sample_pose(0, PoseRanges(z_range=(0.01, 0.02)), cloud, intr, 64, 64)

    def test_rotation_distribution_not_degenerate(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        ranges = PoseRanges(z_range=(0.45, 0.7))
        traces = [np.trace(sample_pose(s, ranges, cloud, intr, 64, 64).rotation)
                  for s in range(20)]
        assert np.std(traces) > 0.1

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            PoseRanges(z_range=(-1.0, 1.0))


class TestMakeScene:
    def test_mask_covers_projections(self, scene):
        cloud, keys, s = scene
        proj = project(s.pose, s.intr, cloud.points)
        for px, py in proj:
            assert s.mask[int(py), int(px)]

    def test_mask_nonempty_and_bounded(self, scene):
        _, _, s = scene
        n = np.count_nonzero(s.mask)
        assert 0 < n < s.mask.size

    def test_fields_unit_norm_on_mask(self, scene):
        _, _, s = scene
        for f in s.gt_fields:
            norms = np.linalg.norm(f[s.mask], axis=-1)
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_fields_zero_off_mask(self, scene):
        _, _, s = scene
        for f in s.gt_fields:
            assert np.all(f[~s.mask] == 0.0)

    def test_fields_point_at_keypoints(self, scene):
        _, _, s = scene
        ctr = pixel_centers(s.height, s.width)
        for f, k in zip(s.gt_fields, s.keypoints2):
            diff = k[None, None] - ctr
            r = np.linalg.norm(diff, axis=-1)
            ok = s.mask & (r > 1e-9)
            cross = f[..., 0] * diff[..., 1] - f[..., 1] * diff[..., 0]
            assert np.abs(cross[ok]).max() < 1e-9 * r[ok].max()
            dot = f[..., 0] * diff[..., 0] + f[..., 1] * diff[..., 1]
            assert np.all(dot[ok] > 0)

    def test_keypoints2_match_projection(self, scene):
        _, keys, s = scene
        assert np.allclose(s.keypoints2, project(s.pose, s.intr, keys.points3))


class TestSplatMask:
    @pytest.mark.parametrize("radius", [0.25, 0.5, 1.5, 3.7])
    def test_matches_per_point_oracle(self, radius):
        rng = np.random.default_rng(int(radius * 100))
        w, h = 23, 17
        for _ in range(60):
            n = int(rng.integers(0, 40))
            # some points up to 8 px off the image, a third of them on the
            # half-pixel lattice, where d^2 == r^2 exactly for lattice radii
            pts = rng.uniform([-8, -8], [w + 8, h + 8], size=(n, 2))
            lattice = rng.random(n) < 1 / 3
            pts[lattice] = np.round(pts[lattice] * 2) / 2
            got = _splat_mask(pts, w, h, radius)
            assert np.array_equal(got, oracle_splat_mask(pts, w, h, radius))

    def test_boundary_pixels_are_inside(self):
        # centres exactly `radius` away are set, as the oracle says
        mask = _splat_mask(np.array([[10.5, 10.5]]), 21, 21, 1.5)
        assert mask[10, 9] and mask[10, 11] and mask[9, 10] and mask[11, 10]
        assert np.array_equal(mask, oracle_splat_mask([[10.5, 10.5]], 21, 21, 1.5))

    def test_no_points_or_all_off_image(self):
        assert not _splat_mask(np.empty((0, 2)), 8, 6).any()
        assert not _splat_mask(np.array([[-5.0, 3.0], [3.0, 20.0]]), 8, 6).any()


class TestIdealFields:
    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(11)
        w, h = 19, 13
        mask = rng.random((h, w)) < 0.6
        # keypoints inside and off the image, one on a pixel centre (a zero
        # field there) and one 1e-10 from another centre
        kps = np.vstack([rng.uniform([-5, -5], [w + 5, h + 5], (6, 2)),
                         [[4.5, 6.5], [7.5 + 1e-10, 2.5]]])
        mask[6, 4] = mask[2, 7] = True
        got = _ideal_fields(mask, kps, h, w)
        want = oracle_ideal_fields(mask, kps)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all(got[6, 6, 4] == 0.0) and np.all(got[7, 2, 7] == 0.0)

    def test_empty_mask_and_no_keypoints(self):
        assert not _ideal_fields(np.zeros((5, 4), bool), np.ones((3, 2)), 5, 4).any()
        assert _ideal_fields(np.ones((5, 4), bool), np.empty((0, 2)), 5, 4).shape == (0, 5, 4, 2)


class TestCorrupt:
    def test_identity_noise_is_identity(self, scene):
        _, _, s = scene
        out = corrupt(s, NoiseSpec())
        assert np.array_equal(out.mask, s.mask)
        assert np.array_equal(out.gt_fields, s.gt_fields)

    def test_angular_noise_preserves_norms(self, scene):
        _, _, s = scene
        out = corrupt(s, NoiseSpec(angular_sigma=5.0, rng_seed=1))
        for f in out.gt_fields:
            assert np.allclose(np.linalg.norm(f[out.mask], axis=-1), 1.0, atol=1e-12)

    def test_angular_noise_statistics(self, scene):
        _, _, s = scene
        sigma = 5.0
        out = corrupt(s, NoiseSpec(angular_sigma=sigma, rng_seed=2))
        f0, g0 = out.gt_fields[0], s.gt_fields[0]
        dots = np.clip(np.sum(f0[out.mask] * g0[out.mask], axis=-1), -1, 1)
        angles = np.degrees(np.arccos(dots))
        # arccos folds the sign, so compare against the half-normal mean
        assert abs(np.mean(angles) - sigma * np.sqrt(2 / np.pi)) < 0.7

    def test_flip_probability(self, scene):
        _, _, s = scene
        out = corrupt(s, NoiseSpec(flip_prob=0.3, rng_seed=3))
        dots = np.sum(out.gt_fields[0][out.mask] * s.gt_fields[0][out.mask], axis=-1)
        frac = np.mean(dots < 0)
        assert abs(frac - 0.3) < 0.1

    def test_occlusion_removes_connected_fraction(self, scene):
        _, _, s = scene
        out = corrupt(s, NoiseSpec(occlusion_frac=0.3, rng_seed=4))
        n0, n1 = np.count_nonzero(s.mask), np.count_nonzero(out.mask)
        assert n1 == n0 - int(round(0.3 * n0))
        assert np.all(s.mask[out.mask])  # subset
        # removed pixels form one connected blob
        removed = s.mask & ~out.mask
        from collections import deque
        ii, jj = np.nonzero(removed)
        seen = np.zeros_like(removed)
        q = deque([(ii[0], jj[0])])
        seen[ii[0], jj[0]] = True
        count = 0
        while q:
            i, j = q.popleft()
            count += 1
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ni < removed.shape[0] and 0 <= nj < removed.shape[1] \
                        and removed[ni, nj] and not seen[ni, nj]:
                    seen[ni, nj] = True
                    q.append((ni, nj))
        assert count == len(ii)

    def test_fields_zero_outside_new_mask(self, scene):
        _, _, s = scene
        out = corrupt(s, NoiseSpec(occlusion_frac=0.4, angular_sigma=3.0, rng_seed=5))
        for f in out.gt_fields:
            assert np.all(f[~out.mask] == 0.0)

    def test_deterministic(self, scene):
        _, _, s = scene
        spec = NoiseSpec(angular_sigma=4.0, flip_prob=0.1, occlusion_frac=0.2, rng_seed=6)
        a, b = corrupt(s, spec), corrupt(s, spec)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.gt_fields, b.gt_fields)

    def test_does_not_mutate_input(self, scene):
        _, _, s = scene
        before_mask = s.mask.copy()
        before_fields = s.gt_fields.copy()
        corrupt(s, NoiseSpec(angular_sigma=4.0, occlusion_frac=0.2, rng_seed=7))
        assert np.array_equal(s.mask, before_mask)
        assert np.array_equal(s.gt_fields, before_fields)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            NoiseSpec(flip_prob=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(angular_sigma=-1.0)


class TestSceneIO:
    def test_roundtrip_bitexact(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        back = load_scene(d)
        assert np.array_equal(back.mask, s.mask)
        assert np.array_equal(back.pose.rotation, s.pose.rotation)
        assert np.array_equal(back.pose.translation, s.pose.translation)
        assert back.intr == s.intr
        assert np.array_equal(back.keypoints2, s.keypoints2)
        assert np.array_equal(back.keypoints3, s.keypoints3)
        assert np.array_equal(back.gt_fields, s.gt_fields)

    def test_rewrite_is_byte_identical(self, scene, tmp_path):
        _, _, s = scene
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_scene(d1, s)
        save_scene(d2, s)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_no_temp_files_left(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        assert not list(d.glob("*.tmp"))

    def test_corrupt_field_file_rejected(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        path = d / "field_00.csv"
        text = path.read_text().splitlines()
        text[1] = text[1].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ModelLoadError, match="field_00"):
            load_scene(d)

    def test_pgm_is_plain_p2(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        lines = (d / "mask.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == f"{s.width} {s.height}"
        assert lines[2] == "255"
        vals = set(" ".join(lines[3:]).split())
        assert vals <= {"0", "255"}

    def test_field_text_matches_per_pixel_formatter(self, scene, tmp_path):
        _, _, s = scene
        special = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, -1e300,
                   1 / 3, -2.5e-17, 123456789.125]
        fields = np.zeros_like(s.gt_fields)
        ii, jj = np.nonzero(s.mask)
        for k in range(len(fields)):
            vals = np.resize(np.roll(special, k), 2 * len(ii)).reshape(-1, 2)
            fields[k, ii, jj] = vals
        s = replace(s, gt_fields=fields)
        d = tmp_path / "scene"
        save_scene(d, s)
        for k, f in enumerate(fields):
            ref = ["row,col,vx,vy"] + [f"{i},{j},{_fmt(f[i, j, 0])},{_fmt(f[i, j, 1])}"
                                       for i, j in zip(ii, jj)]
            assert (d / f"field_{k:02d}.csv").read_text() == "\n".join(ref) + "\n"
        back = load_scene(d)
        assert np.array_equal(back.gt_fields, fields)
        assert np.array_equal(np.signbit(back.gt_fields), np.signbit(fields))

    def test_empty_mask_roundtrip(self, scene, tmp_path):
        _, _, s = scene
        s = replace(s, mask=np.zeros_like(s.mask), gt_fields=np.zeros_like(s.gt_fields))
        d = tmp_path / "scene"
        save_scene(d, s)
        assert (d / "field_00.csv").read_text() == "row,col,vx,vy\n"
        back = load_scene(d)
        assert not back.mask.any()
        assert back.gt_fields.shape == s.gt_fields.shape
        assert not back.gt_fields.any()

    def test_short_field_row_rejected(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        path = d / "field_01.csv"
        text = path.read_text().splitlines()
        text[2] = text[2].rsplit(",", 1)[0]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ModelLoadError, match="field_01"):
            load_scene(d)
