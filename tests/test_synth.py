import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dataclasses import replace

from helpers import (centre_grid, cube_cloud, default_intrinsics, dense, make_cube_scene,
                     noisy_scene)
from oracles import oracle_corrupt, oracle_ideal_fields, oracle_splat_mask
from proxyvote.errors import DegenerateInputError, ModelLoadError
from proxyvote.geometry import pixel_centers, project
from proxyvote.synth import (NoiseSpec, PoseRanges, _ideal_fields, _load_pgm, _splat_mask,
                             corrupt, csv_text, load_csv, load_scene, sample_pose, save_scene,
                             scene_dir, scene_dirs, write_atomic)


@pytest.fixture(scope="module")
def scene():
    return make_cube_scene(seed=3)


class TestSamplePose:
    def test_projections_respect_margin(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        ranges = PoseRanges(z_range=(0.45, 0.7))
        for seed in range(10):
            pose = sample_pose(np.random.default_rng(seed), ranges, cloud, intr, 64, 64)
            proj = project(pose, intr, cloud.points)
            assert proj.min() >= ranges.margin
            assert proj.max() <= 64 - ranges.margin

    def test_deterministic_per_seed(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        ranges = PoseRanges(z_range=(0.45, 0.7))
        a = sample_pose(np.random.default_rng(5), ranges, cloud, intr, 64, 64)
        b = sample_pose(np.random.default_rng(5), ranges, cloud, intr, 64, 64)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_impossible_range_raises(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        # object too close: it cannot fit inside a 64 px frame
        with pytest.raises(DegenerateInputError, match="after 1000 rejections"):
            sample_pose(np.random.default_rng(0), PoseRanges(z_range=(0.01, 0.02)), cloud, intr,
                        64, 64)

    def test_rotation_distribution_not_degenerate(self):
        cloud = cube_cloud()
        intr = default_intrinsics()
        ranges = PoseRanges(z_range=(0.45, 0.7))
        traces = [np.trace(sample_pose(np.random.default_rng(s), ranges, cloud, intr, 64, 64)
                           .rotation) for s in range(20)]
        assert np.std(traces) > 0.1

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            PoseRanges(z_range=(-1.0, 1.0))
        with pytest.raises(ValueError):
            PoseRanges(z_range=(0.7, 0.45))
        for z_range, margin in (((0.5, np.inf), 4.0), ((np.nan, 1.0), 4.0), ((0.5, 1.0), np.nan)):
            with pytest.raises(ValueError, match="non-finite"):
                PoseRanges(z_range=z_range, margin=margin)
        PoseRanges(z_range=(0.5, 0.5))


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
        ctr = centre_grid(s.height, s.width)
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
        assert np.allclose(s.keypoints2, project(s.pose, s.intr, keys))


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
        got = dense(_ideal_fields(mask, kps), mask)
        want = oracle_ideal_fields(mask, kps)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all(got[6, 6, 4] == 0.0) and np.all(got[7, 2, 7] == 0.0)

    def test_empty_mask_and_no_keypoints(self):
        empty, full = np.zeros((5, 4), bool), np.ones((5, 4), bool)
        assert not dense(_ideal_fields(empty, np.ones((3, 2))), empty).any()
        assert dense(_ideal_fields(full, np.empty((0, 2))), full).shape == (0, 5, 4, 2)


class TestCorrupt:
    def test_identity_noise_is_identity(self, scene):
        # bit for bit, -0.0 included, with a keypoint on a pixel centre: its
        # pixel's zero row and the zero components of its row and column
        _, _, s = scene
        centre = pixel_centers(s.mask)[len(s.fields[0]) // 2]
        keypoints2 = np.vstack([s.keypoints2, centre])
        s = replace(s, keypoints2=keypoints2, fields=_ideal_fields(s.mask, keypoints2))
        last = s.fields[-1]
        assert (last == 0).all(axis=1).any() and ((last == 0) & (last[:, ::-1] < 0)).any()
        for seed in (0, 5, 2 ** 40):
            out = corrupt(s, NoiseSpec(rng_seed=seed))
            assert out.mask.tobytes() == s.mask.tobytes()
            assert out.fields.tobytes() == s.fields.tobytes()

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
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                NoiseSpec(angular_sigma=sigma)

    @pytest.mark.parametrize("spec, empty_input", [
        (NoiseSpec(angular_sigma=5.0, flip_prob=0.1, occlusion_frac=0.2, rng_seed=11), False),
        (NoiseSpec(angular_sigma=0.0, flip_prob=1.0, rng_seed=12), False),
        (NoiseSpec(angular_sigma=5.0, flip_prob=0.1, occlusion_frac=1.0, rng_seed=13), False),
        (NoiseSpec(angular_sigma=5.0, flip_prob=0.1, occlusion_frac=0.2, rng_seed=14), True),
    ], ids=["noisy", "sigma0_all_flipped", "fully_occluded", "empty_mask"])
    def test_matches_dense_oracle_bit_for_bit(self, scene, spec, empty_input):
        _, _, s = scene
        if empty_input:
            s = replace(s, mask=np.zeros_like(s.mask), fields=s.fields[:, :0])
        out = corrupt(s, spec)
        mask, fields = oracle_corrupt(s.gt_fields, s.mask, spec.angular_sigma, spec.flip_prob,
                                      spec.occlusion_frac, spec.rng_seed)
        assert np.array_equal(out.mask, mask)
        assert out.gt_fields.dtype == fields.dtype and out.gt_fields.shape == fields.shape
        assert np.array_equal(out.gt_fields.view(np.uint64), fields.view(np.uint64))
        if spec.occlusion_frac == 1.0 or empty_input:
            assert not out.mask.any()


@st.composite
def csv_tables(draw):
    """An (n,) int64 column within +-2**53 and an (n, c) finite float64 table."""
    n = draw(st.integers(0, 8))
    ints = draw(hnp.arrays(np.int64, n, elements=st.integers(-2 ** 53, 2 ** 53)))
    floats = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 3))),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    return ints, floats


class TestCsvText:
    @given(table=csv_tables())
    @example(table=(np.array([0, -2 ** 53, 2 ** 53]),
                    np.array([[5e-324, -0.0], [0.0, 1.7976931348623157e308],
                              [-1.7976931348623157e308, -2.2250738585072014e-308]])))
    @settings(max_examples=100, deadline=None)
    def test_load_csv_reads_it_back_bit_for_bit(self, table, tmp_path_factory):
        ints, floats = table
        path = tmp_path_factory.getbasetemp() / "csv_text.csv"
        names = ["i"] + [f"f{j}" for j in range(floats.shape[1])]
        write_atomic(path, csv_text(names, [ints, *floats.T]))
        data = load_csv(path, len(names))
        assert np.array_equal(data[:, 0], ints)
        assert np.array_equal(data[:, 1:].view(np.uint64), floats.view(np.uint64))

    def test_ints_bools_and_non_finite_floats(self):
        text = csv_text(["n", "ok", "x"], [np.arange(4), [True, False, True, False],
                                            [np.nan, np.inf, -np.inf, 0.1]])
        assert text == "n,ok,x\n0,1,nan\n1,0,inf\n2,1,-inf\n3,0,0.1\n"


class TestSceneDirs:
    def test_scenes_follow_their_number_past_999(self, tmp_path):
        names = ["sample_1000", "sample_101", "sample_099", "sample_100", "sample_x"]
        for name in names:
            (tmp_path / name).mkdir()
        dirs = scene_dirs(str(tmp_path))
        assert [os.path.basename(d) for d in dirs] == [
            "sample_099", "sample_100", "sample_101", "sample_1000", "sample_x"]

    def test_scene_dir_names_list_in_scene_order(self, tmp_path):
        for i in (1000, 0, 999):
            os.mkdir(scene_dir(str(tmp_path), i))
        assert scene_dirs(str(tmp_path)) == [scene_dir(str(tmp_path), i) for i in (0, 999, 1000)]

    def test_no_scene_is_an_error(self, tmp_path):
        (tmp_path / "scene_000").mkdir()
        with pytest.raises(FileNotFoundError, match="no sample_"):
            scene_dirs(str(tmp_path))

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="scene directory not found"):
            scene_dirs(str(tmp_path / "none"))


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

    def test_failed_write_removes_only_its_own_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()  # a file cannot replace a directory
        with pytest.raises(IsADirectoryError):
            write_atomic(tmp_path / "out", "x")
        (tmp_path / "b.tmp").mkdir()  # the temp file cannot be opened
        with pytest.raises(IsADirectoryError):
            write_atomic(tmp_path / "b", "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.tmp", "out"]

    def test_corrupt_field_file_rejected(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        values = np.load(d / "fields.npy")
        values[0, 0, 1] = np.nan
        np.save(d / "fields.npy", values)
        with pytest.raises(ModelLoadError, match="fields.npy: non-finite"):
            load_scene(d)

    def test_non_finite_keypoint_rejected(self, scene, tmp_path):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        path = d / "keypoints.csv"
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, "nan" + first[first.index(","):], *rest]) + "\n")
        with pytest.raises(ModelLoadError, match="keypoints.csv: non-finite"):
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
        # fields.npy holds each field's (vx, vy) at the masked pixels in
        # row-major order, every bit kept: -0.0, subnormals and all
        _, _, s = scene
        special = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, -1e300,
                   1 / 3, -2.5e-17, 123456789.125]
        fields = np.zeros_like(s.gt_fields)
        ii, jj = np.nonzero(s.mask)
        for k in range(len(fields)):
            vals = np.resize(np.roll(special, k), 2 * len(ii)).reshape(-1, 2)
            fields[k, ii, jj] = vals
        s = replace(s, fields=fields[:, s.mask])
        d = tmp_path / "scene"
        save_scene(d, s)
        ref = [[[f[i, j, 0], f[i, j, 1]] for i in range(s.height) for j in range(s.width)
                if s.mask[i, j]] for f in fields]
        stored = np.load(d / "fields.npy")
        assert stored.dtype == np.float64 and stored.shape == (len(fields), len(ii), 2)
        assert np.array_equal(stored.view(np.uint64), np.array(ref).view(np.uint64))
        back = load_scene(d)
        assert np.array_equal(back.gt_fields.view(np.uint64), fields.view(np.uint64))

    def test_empty_mask_roundtrip(self, scene, tmp_path):
        _, _, s = scene
        s = replace(s, mask=np.zeros_like(s.mask), fields=s.fields[:, :0])
        d = tmp_path / "scene"
        save_scene(d, s)
        assert np.load(d / "fields.npy").shape == (len(s.gt_fields), 0, 2)
        back = load_scene(d)
        assert not back.mask.any()
        assert back.gt_fields.shape == s.gt_fields.shape
        assert not back.gt_fields.any()

    def test_one_pixel_mask_roundtrip(self, scene, tmp_path):
        _, _, s = scene
        mask = np.zeros_like(s.mask)
        mask[7, 41] = True
        fields = np.zeros_like(s.gt_fields)
        fields[:, 7, 41] = [-0.0, 0.1 + 0.2]
        fields[1, 7, 41] = [5e-324, -1.0]
        s = replace(s, mask=mask, fields=fields[:, mask])
        d = tmp_path / "scene"
        save_scene(d, s)
        stored = np.load(d / "fields.npy")
        assert stored.shape == (len(fields), 1, 2)
        assert np.array_equal(stored.view(np.uint64), fields[:, 7:8, 41].view(np.uint64))
        back = load_scene(d)
        assert np.array_equal(back.mask, mask)
        assert np.array_equal(back.gt_fields.view(np.uint64), fields.view(np.uint64))

    def test_short_field_row_rejected(self, scene, tmp_path):
        # a fields.npy with one masked pixel fewer than mask.pgm
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        np.save(d / "fields.npy", np.load(d / "fields.npy")[:, 1:])
        with pytest.raises(ModelLoadError, match="fields.npy: .*shape"):
            load_scene(d)

    def test_ragged_field_rows_rejected(self, scene, tmp_path):
        # three values per pixel where (vx, vy) is expected
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        values = np.load(d / "fields.npy")
        np.save(d / "fields.npy", np.concatenate([values, values[..., :1]], axis=-1))
        with pytest.raises(ModelLoadError, match="fields.npy: .*shape"):
            load_scene(d)

    @pytest.mark.parametrize("damage", [
        lambda v, b: b"",
        lambda v, b: b[:-8],
        lambda v, b: b[:40],
        lambda v, b: _npy(v[1:]),
        lambda v, b: _npy(v.astype(np.float32)),
        lambda v, b: _npy(v.astype(object), allow_pickle=True),
        lambda v, b: b"row,col,vx,vy\n",
        lambda v, b: _npy(v, savez=True),
    ], ids=["empty", "truncated_data", "truncated_header", "wrong_k", "wrong_dtype",
            "object_array", "text", "npz_archive"])
    def test_bad_fields_file_names_the_file(self, scene, tmp_path, damage):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        path = d / "fields.npy"
        path.write_bytes(damage(np.load(path), path.read_bytes()))
        with pytest.raises(ModelLoadError, match="fields.npy"):
            load_scene(d)


class TestLoadPose:
    @pytest.mark.parametrize("damage", [
        lambda doc: "{",
        lambda doc: json.dumps(list(doc.values())),
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "fx"}),
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "translation"}),
        lambda doc: json.dumps({**doc, "rotation": doc["rotation"][:8]}),
        lambda doc: json.dumps({**doc, "translation": doc["translation"] + [0.0]}),
        lambda doc: json.dumps({**doc, "rotation": "identity"}),
        lambda doc: json.dumps({**doc, "translation": [0.0, "1", 0.5]}),
        lambda doc: json.dumps({**doc, "fx": "80"}),
        lambda doc: json.dumps({**doc, "cy": True}),
        lambda doc: json.dumps({**doc, "cx": float("nan")}),
        lambda doc: json.dumps({**doc, "fx": float("inf")}),
        lambda doc: json.dumps({**doc, "cy": 10 ** 400}),
        lambda doc: json.dumps({**doc, "translation": [0.0, 0.0, float("inf")]}),
        lambda doc: json.dumps({**doc, "rotation": [1.0] * 9}),
        lambda doc: json.dumps({**doc, "fy": 0.0}),
    ], ids=["not_json", "not_an_object", "no_fx", "no_translation", "rotation_of_8",
            "translation_of_4", "rotation_not_a_list", "translation_with_a_string",
            "fx_a_string", "cy_a_bool", "cx_nan", "fx_inf", "cy_past_float_range",
            "translation_inf", "not_a_rotation", "zero_focal_length"])
    def test_malformed_file_names_the_file(self, scene, tmp_path, damage):
        _, _, s = scene
        d = tmp_path / "scene"
        save_scene(d, s)
        path = d / "pose.json"
        path.write_text(damage(json.loads(path.read_text())))
        with pytest.raises(ModelLoadError, match=f"^{re.escape(str(path))}: "):
            load_scene(d)


class TestLoadSceneMemory:
    def test_peak_stays_near_the_masked_fields(self, tmp_path):
        # a noisy 128 x 128 scene with 8 keypoints: its masked fields take
        # about 0.1 MB, a dense (K, H, W, 2) copy 2.1 MB
        save_scene(tmp_path / "scene", noisy_scene(1))
        tracemalloc.start()
        try:
            load_scene(tmp_path / "scene")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _npy(array, allow_pickle=False, savez=False):
    """The bytes np.save (or np.savez) writes for array."""
    buf = io.BytesIO()
    if savez:
        np.savez(buf, fields=array)
    else:
        np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()

MASK = np.array([[0, 255, 0], [255, 255, 0]])


def write_pgm(path, text):
    path.write_text(text)
    return path


class TestLoadPgm:
    def test_any_line_wrapping_and_comments(self, tmp_path):
        texts = ["P2\n3 2\n255\n0 255 0\n255 255 0\n",
                 "P2 3 2 255 0 255 0 255 255 0",
                 "P2\n3\n2\n255\n0\n255\n0\n255\n255\n0",
                 "P2\n# a comment\n3 2 # width height\n255\n0 255\t0 255\r\n255 0#\n"]
        for n, text in enumerate(texts):
            got = _load_pgm(write_pgm(tmp_path / f"m{n}.pgm", text))
            assert np.array_equal(got, MASK > 0)

    def test_values_beyond_the_image_are_ignored(self, tmp_path):
        got = _load_pgm(write_pgm(tmp_path / "m.pgm", "P2\n3 2\n255\n0 255 0\n255 255 0\n255 7\n"))
        assert np.array_equal(got, MASK > 0)

    @pytest.mark.parametrize("text", ["P2\n3 2\n255\n0 255 0\n255 255\n",
                                      "P2\n3 2\n255\n",
                                      "P2\n3 2\n255\n0 255 0\n255 x 0\n",
                                      "P2\n3 2\n255\n0 255 0\n255 2.5 0\n",
                                      "P2\n3 2\n",
                                      "P2\n3 2\njunk\n0 255 0\n255 255 0\n",
                                      "P2\n3 2\n0\n0 255 0\n255 255 0\n",
                                      "P5\n3 2\n255\n0 255 0\n255 255 0\n"],
                             ids=["short", "no_values", "non_numeric", "fraction", "no_maxval",
                                  "junk_maxval", "zero_maxval", "not_p2"])
    def test_malformed_file_names_the_file(self, tmp_path, text):
        with pytest.raises(ModelLoadError, match="mask.pgm"):
            _load_pgm(write_pgm(tmp_path / "mask.pgm", text))

    @pytest.mark.parametrize("size", ["0 2", "3 0", "-1 -1", "3 -2", "-3 -2"])
    def test_non_positive_size_names_the_file(self, tmp_path, size):
        with pytest.raises(ModelLoadError, match="mask.pgm: .*must be positive"):
            _load_pgm(write_pgm(tmp_path / "mask.pgm", f"P2\n{size}\n255\n0 255 0\n255 255 0\n"))
