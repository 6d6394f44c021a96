import numpy as np
import pytest
from scipy.spatial.distance import pdist

from helpers import cube_cloud
from oracles import oracle_fps_verify
from proxyvote.errors import DegenerateInputError, ModelLoadError
from proxyvote.model_tools import (DIAMETER_SUBSAMPLE, ModelCloud,
                                   farthest_point_sampling, load_model,
                                   model_diameter)

PLY_OK = """ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
0 0 1
"""

PLY_EXTRA_PROPS = """ply
format ascii 1.0
comment made by hand
element vertex 4
property float nx
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
9 0 0 0
9 2 0 0
9 0 2 0
9 0 0 2
3 0 1 2
"""

# faces declared, and so listed, before the vertices
PLY_FACES_FIRST = """ply
format ascii 1.0
element face 2
property list uchar int vertex_indices
element vertex 4
property float x
property float y
property float z
end_header
3 0 1 2
3 0 2 3
0 0 0
1 0 0
0 1 0
0 0 1
"""

OBJ_OK = """# comment
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
v 0 0 1
f 1 2 3
"""


class TestLoadModel:
    def test_ply(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_OK)
        cloud = load_model(p)
        assert cloud.points.shape == (4, 3)
        assert np.allclose(cloud.points[3], [0, 0, 1])
        assert cloud.name == "m"
        assert not cloud.symmetric

    def test_ply_extra_properties_and_faces(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_EXTRA_PROPS)
        cloud = load_model(p, symmetric=True)
        assert cloud.points.shape == (4, 3)
        assert np.allclose(cloud.points[1], [2, 0, 0])
        assert cloud.symmetric

    def test_ply_vertices_after_another_element(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_FACES_FIRST)
        assert np.array_equal(load_model(p).points, np.vstack([np.zeros(3), np.eye(3)]))

    def test_ply_bad_count_before_vertex(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_FACES_FIRST.replace("face 2", "face two"))
        with pytest.raises(ModelLoadError, match="line 3: bad element count"):
            load_model(p)

    def test_ply_bad_vertex_line_after_faces_reports_line_number(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_FACES_FIRST.replace("0 0 1", "0 0 oops"))
        with pytest.raises(ModelLoadError, match="line 15"):
            load_model(p)

    @pytest.mark.parametrize("old, new, match", [
        ("ply\n", "", "line 1: missing 'ply' magic"),
        ("ascii", "binary_little_endian", "line 2: only ASCII PLY is supported"),
        ("float z\n", "float z\nproperty list uchar int i\n",
         "line 7: list property in vertex element"),
        ("end_header\n", "", "missing end_header"),
        ("element vertex", "element point", "no vertex element in header"),
        ("0 0 1", "0 0", "line 11: expected 3 values"),
    ], ids=["no_magic", "binary_format", "list_property", "no_end_header", "no_vertex_element",
            "short_vertex_line"])
    def test_malformed_ply_names_the_fault(self, tmp_path, old, new, match):
        p = tmp_path / "m.ply"
        p.write_text(PLY_OK.replace(old, new))
        with pytest.raises(ModelLoadError, match=f"^m.ply: {match}"):
            load_model(p)

    def test_obj(self, tmp_path):
        p = tmp_path / "m.obj"
        p.write_text(OBJ_OK)
        cloud = load_model(p)
        assert cloud.points.shape == (4, 3)
        assert np.allclose(cloud.points[3], [0, 0, 1])

    @pytest.mark.parametrize("line, match", [("v 1 0", "vertex needs 3 coordinates"),
                                             ("v 1 0 x", "non-numeric vertex value")])
    def test_bad_obj_vertex_line_reports_line_number(self, tmp_path, line, match):
        p = tmp_path / "m.obj"
        p.write_text(OBJ_OK.replace("v 0 0 1", line))
        with pytest.raises(ModelLoadError, match=f"^m.obj: line 6: {match}"):
            load_model(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "nope.ply")

    def test_binary_ply_rejected(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_bytes(b"ply\nformat binary_little_endian 1.0\n\xff\x00")
        with pytest.raises(ModelLoadError):
            load_model(p)

    def test_bad_vertex_line_reports_line_number(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_OK.replace("0 0 1", "0 0 oops"))
        with pytest.raises(ModelLoadError, match="line 11"):
            load_model(p)

    def test_bare_property_line_reports_line_number(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_OK.replace("property float y", "property"))
        with pytest.raises(ModelLoadError, match="line 5: property needs a type and a name"):
            load_model(p)

    def test_missing_axis_property(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text(PLY_OK.replace("property float z", "property float w"))
        with pytest.raises(ModelLoadError, match="'z'"):
            load_model(p)

    def test_truncated_data(self, tmp_path):
        p = tmp_path / "m.ply"
        p.write_text("\n".join(PLY_OK.splitlines()[:-1]) + "\n")
        with pytest.raises(ModelLoadError):
            load_model(p)

    def test_vertex_count_past_the_array_limit_is_a_short_file(self, tmp_path):
        # the line count is checked before any vertex line is read
        p = tmp_path / "m.ply"
        p.write_text(PLY_OK.replace("vertex 4", f"vertex {10 ** 30}"))
        with pytest.raises(ModelLoadError, match=f"^m.ply: expected {10 ** 30} vertex lines, "
                                                 "got 4$"):
            load_model(p)

    def test_ply_and_obj_read_the_same_bits(self, tmp_path):
        # one set of vertex tokens: a PLY with an element before the vertices
        # and properties around x, y, z, and an OBJ with a w coordinate
        rows = [["0.1", "1e-3", "-0.0"], [repr(0.1 + 0.2), "-12", "2.5e-300"],
                [repr(np.nextafter(1.0, 2.0).item()), "+7", "0"], ["1E3", "-1e-3", ".5"]]
        ply = tmp_path / "m.ply"
        ply.write_text("ply\nformat ascii 1.0\nelement face 1\n"
                       "property list uchar int vertex_indices\nelement vertex 4\n"
                       "property float nx\nproperty float x\nproperty float y\n"
                       "property float z\nproperty uchar red\nend_header\n3 0 1 2\n"
                       + "".join(f"9 {x} {y} {z} 255\n" for x, y, z in rows))
        obj = tmp_path / "m.obj"
        obj.write_text("# made by hand\n" + "".join(f"v {x} {y} {z} 1.0\nvn 0 0 1\n"
                                                    for x, y, z in rows) + "f 1 2 3\n")
        want = np.array([[float(t) for t in row] for row in rows])
        assert load_model(ply).points.tobytes() == want.tobytes()
        assert load_model(obj).points.tobytes() == want.tobytes()


class TestModelCloud:
    def test_too_few_points(self):
        with pytest.raises(ModelLoadError):
            ModelCloud(points=np.zeros((3, 3)))

    def test_non_finite(self):
        pts = np.zeros((5, 3))
        pts[2, 1] = np.nan
        with pytest.raises(ModelLoadError):
            ModelCloud(points=pts)


class TestFarthestPointSampling:
    def test_greedy_invariant(self):
        cloud = cube_cloud(n_extra=200, seed=0)
        ks = farthest_point_sampling(cloud, 8)
        assert oracle_fps_verify(cloud.points, ks)

    def test_default_start_is_farthest_from_centroid(self):
        cloud = cube_cloud(n_extra=100, seed=1)
        ks = farthest_point_sampling(cloud, 4)
        ctr = cloud.points.mean(axis=0)
        d = np.linalg.norm(cloud.points - ctr, axis=1)
        assert ks[0] == np.argmax(d)

    def test_opposite_corner_second_and_spread(self):
        # corners sit first in the cloud; the second pick is the corner
        # opposite the start, and the selection stays well spread out
        cloud = cube_cloud(n_extra=600, seed=3, side=0.1)
        ks = farthest_point_sampling(cloud, 8)
        assert ks[0] < 8 and ks[1] < 8
        pts = cloud.points[ks]
        assert np.linalg.norm(pts[1] - pts[0]) == pytest.approx(0.1 * np.sqrt(3.0))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.05

    def test_n_equals_cloud_size(self):
        cloud = cube_cloud(n_extra=2, seed=4)
        ks = farthest_point_sampling(cloud, len(cloud.points))
        assert sorted(ks.tolist()) == list(range(len(cloud.points)))

    def test_n_too_large(self):
        cloud = cube_cloud(n_extra=0)
        with pytest.raises(DegenerateInputError, match="n=9 exceeds cloud size 8"):
            farthest_point_sampling(cloud, 9)

    def test_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            farthest_point_sampling(cube_cloud(n_extra=0), 0)

    def test_deterministic(self):
        cloud = cube_cloud(n_extra=300, seed=5)
        a = farthest_point_sampling(cloud, 10)
        b = farthest_point_sampling(cloud, 10)
        assert np.array_equal(a, b)


class TestModelDiameter:
    def test_two_point_array(self):
        # a cloud of two distinct points, each listed twice
        cloud = ModelCloud(np.array([[0, 0, 0], [3, 4, 0.0]] * 2))
        assert model_diameter(cloud) == pytest.approx(5.0)

    def test_unit_cube_cloud(self):
        cloud = cube_cloud(n_extra=100, seed=6, side=1.0)
        assert model_diameter(cloud) == pytest.approx(np.sqrt(3.0))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 1, (60, 3))
        want = max(np.linalg.norm(a - b) for a in pts for b in pts)
        assert model_diameter(ModelCloud(pts)) == pytest.approx(want)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(8)
        cloud = ModelCloud(rng.normal(0, 1, (6000, 3)))
        assert model_diameter(cloud) == model_diameter(cloud)

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_pdist_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 401))
        scale = 10.0 ** rng.uniform(-2, 2)
        pts = rng.normal(0, scale, (n, 3)) + rng.uniform(-10, 10, 3) * scale
        assert model_diameter(ModelCloud(pts)) == float(pdist(pts).max())

    @pytest.mark.parametrize("n", [4, 50, 700])
    def test_equals_pdist_on_unit_spheres(self, n):
        # every point is an end of a near-farthest pair, so none is pruned
        v = np.random.default_rng(n).normal(size=(n, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert model_diameter(ModelCloud(pts)) == float(pdist(pts).max())

    def test_equals_pdist_with_duplicate_points(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(-0.05, 0.05, (30, 3))
        pts = base[rng.integers(0, 30, 200)]
        assert model_diameter(ModelCloud(pts)) == float(pdist(pts).max())
        cube = cube_cloud(n_extra=100, seed=2).points
        pts = np.vstack([cube, cube[::-1]])
        assert model_diameter(ModelCloud(pts)) == float(pdist(pts).max())

    def test_equals_pdist_of_the_subsample(self):
        pts = np.random.default_rng(12).normal(0, 1, (DIAMETER_SUBSAMPLE + 1, 3))
        sel = np.random.default_rng(0).choice(len(pts), DIAMETER_SUBSAMPLE, replace=False)
        want = float(pdist(pts[np.sort(sel)]).max())
        assert model_diameter(ModelCloud(pts)) == want

    def test_single_point_raises(self):
        # one point listed four times has no extent
        with pytest.raises(DegenerateInputError, match="two distinct points"):
            model_diameter(ModelCloud(np.ones((4, 3))))
