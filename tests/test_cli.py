import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_corrupt
from proxyvote import cli, trainer
from proxyvote.cli import _parse_seeds, main
from proxyvote.errors import DegenerateInputError, DivergenceError
from proxyvote.metrics import evaluate
from proxyvote.model_tools import load_model, model_diameter
from proxyvote.pnp import solve_epnp
from proxyvote.synth import load_scene
from proxyvote.trainer import keypoint_errors, substream, vote_keypoints
from proxyvote.voting import VotingConfig

CUBE_PLY = """ply
format ascii 1.0
element vertex 8
property float x
property float y
property float z
end_header
0 0 0
0.1 0 0
0 0.1 0
0.1 0.1 0
0 0 0.1
0.1 0 0.1
0 0.1 0.1
0.1 0.1 0.1
"""


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("model") / "cube.ply"
    p.write_text(CUBE_PLY)
    return str(p)


@pytest.fixture(scope="module")
def scenes_dir(tmp_path_factory, model_file):
    out = str(tmp_path_factory.mktemp("scenes") / "set")
    rc = main(["gen", "--model", model_file, "--out", out, "--n", "2",
               "--seed", "0", "--z-min", "0.45", "--z-max", "0.7"])
    assert rc == 0
    return out


def failing_once(monkeypatch, module, name, exc, at):
    """Make module.name raise exc on its call number at (0-based) only."""
    original, calls = getattr(module, name), []

    def fn(*args, **kwargs):
        calls.append(1)
        if len(calls) - 1 == at:
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, fn)


def _replay(tmp_path, command, manifest_dir, out):
    """Run command again with --config set to the config recorded in
    manifest_dir's manifest.json, its out replaced by out."""
    doc = json.loads((Path(manifest_dir) / "manifest.json").read_text())
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(dict(doc["config"], out=str(out))))
    assert main([command, "--config", str(path)]) == 0


def _assert_same_outputs(a, b):
    """Directories a and b hold the same files with the same bytes, those of
    subdirectories included, and manifests that record the same config but out."""
    a, b = Path(a), Path(b)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for f in names:
        if (a / f).is_dir():
            _assert_same_outputs(a / f, b / f)
        elif f == "manifest.json":
            # compared as JSON text, where 0, 0.0 and false differ
            configs = [json.dumps(dict(json.loads((d / f).read_text())["config"], out=None),
                                  sort_keys=True) for d in (a, b)]
            assert configs[0] == configs[1]
        else:
            assert (a / f).read_bytes() == (b / f).read_bytes(), a / f


class TestResolve:
    def test_precedence(self, tmp_path, model_file, scenes_dir):
        # flag over config over default, in the config the manifest records
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": model_file, "n": 3, "seed": 5,
                                   "z_min": 0.45, "z_max": 0.7}))
        out = tmp_path / "g"
        assert main(["gen", "--config", str(cfg), "--n", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())["config"]
        assert (doc["n"], doc["seed"], doc["z_min"]) == (2, 5, 0.45)
        assert (doc["keypoints"], doc["sigma"], doc["cx"]) == (8, 0.0, 32.0)
        assert sorted(os.listdir(out)) == ["manifest.json", "sample_000", "sample_001"]
        # switches: a flag turns off what the config turns on
        cfg.write_text(json.dumps({"scenes": scenes_dir, "lr_decay": True, "iters": 5,
                                   "lr": 0.01, "mode": "vf_only"}))
        out = tmp_path / "t"
        assert main(["train", "--config", str(cfg), "--no-lr-decay", "--scene-limit", "1",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())["config"]
        assert (doc["lr_decay"], doc["iters"], doc["lr"]) == (False, 5, 0.01)
        assert (doc["scene_limit"], doc["beta0"], doc["seeds"]) == (1, 1e-3, "0")

    def test_unknown_config_key(self, tmp_path, model_file, capsys):
        # --config and what set_defaults adds are not settings either
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        for key in ("bogus", "config", "func"):
            cfg.write_text(json.dumps({key: 1}))
            assert main(["gen", "--config", str(cfg), "--model", model_file,
                         "--out", str(out)]) == 2
            assert repr(key) in capsys.readouterr().err
            assert not out.exists()


class TestConfigTypes:
    @pytest.mark.parametrize("command, key, value", [
        ("gen", "n", "2"),
        ("gen", "n", None),
        ("gen", "width", 64.0),
        ("gen", "sigma", "5"),
        ("train", "iters", "10"),
        ("train", "lr_decay", "no"),
        ("eval", "symmetric", "yes"),
        ("report", "traces", "runs"),
        pytest.param("gen", "fx", 10 ** 400, id="gen-fx-int_past_the_largest_float"),
        # no system call takes a path with a NUL in it
        pytest.param("gen", "model", "cube\0.ply", id="gen-model-nul"),
        pytest.param("gen", "out", "x\0y", id="gen-out-nul"),
        pytest.param("report", "traces", ["x\0y"], id="report-traces-nul"),
    ])
    def test_wrong_type_is_usage_error(self, tmp_path, model_file, capsys, command, key, value):
        out = tmp_path / "out"
        flags = {"gen": ["--model", model_file],
                 "train": ["--scenes", str(tmp_path)],
                 "eval": ["--scenes", str(tmp_path), "--model", model_file],
                 "report": []}[command]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and repr(key) in err
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("doc", [[], 5])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, model_file, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--model", model_file, "--out", str(out)]) == 2
        assert not out.exists()

    def test_ints_where_floats_are_expected(self, tmp_path, model_file):
        # an int for a float flag is stored as the float the flag gives
        floats = ["--sigma", "5.0", "--flip-prob", "0.0", "--occlusion", "0.0",
                  "--z-min", "0.45", "--z-max", "0.7", "--margin", "4.0", "--fx", "80",
                  "--fy", "90", "--cx", "31", "--cy", "33"]
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": model_file, "out": str(b), "n": 2, "sigma": 5,
                                   "flip_prob": 0, "occlusion": 0, "z_min": 0.45,
                                   "z_max": 0.7, "margin": 4, "fx": 80, "fy": 90,
                                   "cx": 31, "cy": 33}))
        assert main(["gen", "--model", model_file, "--out", str(a), "--n", "2"] + floats) == 0
        assert main(["gen", "--config", str(cfg)]) == 0
        _assert_same_outputs(a, b)

    def test_unparseable_config_is_usage_error(self, tmp_path, model_file, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n": 2, "seed"')
        out = tmp_path / "out"
        argv = ["gen", "--model", model_file, "--out", str(out), "--config"]
        assert main(argv + [str(cfg)]) == 2
        assert f"usage error: {cfg}" in capsys.readouterr().err
        assert main(argv + [str(tmp_path / "none.json")]) == 1  # I/O, not usage
        assert not out.exists()

    def test_ints_where_switches_are_expected(self, tmp_path, scenes_dir):
        # an int for a switch is stored as the bool the flag gives
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["train", "--scenes", scenes_dir, "--iters", "5", "--scene-limit", "1",
                "--mode", "vf_only"]
        assert main(argv + ["--no-lr-decay", "--out", str(a)]) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lr_decay": 0}))
        assert main(argv + ["--config", str(cfg), "--out", str(b)]) == 0
        assert json.loads((b / "manifest.json").read_text())["config"]["lr_decay"] is False
        _assert_same_outputs(a, b)

    def test_non_finite_value_is_usage_error(self, tmp_path, model_file, capsys):
        # JSON's NaN takes the path of --sigma nan
        config, out = tmp_path / "c.json", tmp_path / "x"
        config.write_text('{"sigma": NaN}')
        assert main(["gen", "--model", model_file, "--out", str(out),
                     "--config", str(config)]) == 2
        assert "usage error: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_seed_list(self, tmp_path, scenes_dir):
        out = tmp_path / "t"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenes": scenes_dir, "out": str(out), "seeds": 3,
                                   "iters": 5, "scene_limit": 1, "mode": "vf_only"}))
        assert main(["train", "--config", str(cfg)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [3]


def test_parse_seeds():
    assert _parse_seeds("0,1,2") == [0, 1, 2]
    assert _parse_seeds("7") == [7]
    from proxyvote.cli import UsageError

    with pytest.raises(UsageError):
        _parse_seeds("1,x")


class TestGen:
    def test_creates_scene_dirs_and_manifest(self, scenes_dir):
        names = sorted(os.listdir(scenes_dir))
        assert "manifest.json" in names
        assert "sample_000" in names and "sample_001" in names
        for d in ("sample_000", "sample_001"):
            files = sorted(os.listdir(os.path.join(scenes_dir, d)))
            assert files == ["fields.npy", "keypoints.csv", "mask.pgm", "pose.json"]

    def test_manifest_contents(self, scenes_dir):
        doc = json.loads(open(os.path.join(scenes_dir, "manifest.json")).read())
        assert doc["command"] == "gen"
        assert doc["seeds"] == [0]
        assert doc["config"]["n"] == 2
        assert len(doc["outputs"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path, model_file):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argbase = ["gen", "--model", model_file, "--n", "2", "--seed", "5",
                   "--z-min", "0.45", "--z-max", "0.7"]
        assert main(argbase + ["--out", a]) == 0
        assert main(argbase + ["--out", b]) == 0
        for d in ("sample_000", "sample_001"):
            for f in sorted(os.listdir(os.path.join(a, d))):
                fa = open(os.path.join(a, d, f), "rb").read()
                fb = open(os.path.join(b, d, f), "rb").read()
                assert fa == fb, f"{d}/{f} differs between identical runs"

    def test_rerun_from_manifest_config(self, tmp_path, scenes_dir, model_file):
        # replay the stored config via --config and compare scene bytes
        doc = json.loads(open(os.path.join(scenes_dir, "manifest.json")).read())
        cfg_path = tmp_path / "replay.json"
        replay_out = str(tmp_path / "replay")
        cfg = dict(doc["config"])
        cfg["out"] = replay_out
        cfg_path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(cfg_path)]) == 0
        for d in ("sample_000", "sample_001"):
            for f in sorted(os.listdir(os.path.join(scenes_dir, d))):
                fa = open(os.path.join(scenes_dir, d, f), "rb").read()
                fb = open(os.path.join(replay_out, d, f), "rb").read()
                assert fa == fb

    def test_model_and_poses_are_prepared_once(self, tmp_path, model_file, monkeypatch):
        import proxyvote.cli as cli

        calls = {}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("sample_pose", "load_model", "farthest_point_sampling"):
            counted(name)
        assert main(["gen", "--model", model_file, "--out", str(tmp_path / "g"),
                     "--n", "6", "--z-min", "0.45", "--z-max", "0.7"]) == 0
        assert calls == {"sample_pose": 6, "load_model": 1, "farthest_point_sampling": 1}

    def test_scene_does_not_depend_on_n(self, tmp_path, model_file):
        argbase = ["gen", "--model", model_file, "--seed", "4", "--sigma", "3",
                   "--flip-prob", "0.1", "--occlusion", "0.2",
                   "--z-min", "0.45", "--z-max", "0.7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argbase + ["--n", "3", "--out", str(a)]) == 0
        assert main(argbase + ["--n", "6", "--out", str(b)]) == 0
        for i in range(3):
            d = f"sample_{i:03d}"
            names = sorted(os.listdir(a / d))
            assert names == sorted(os.listdir(b / d))
            for f in names:
                assert (a / d / f).read_bytes() == (b / d / f).read_bytes()

    def test_scene_matches_replayed_recipe(self, tmp_path, model_file):
        # scene i: the (i+1)-th pose of a fresh "scene" stream, corrupted
        # with the "noise" stream's base seed + i
        from proxyvote.geometry import Intrinsics
        from proxyvote.model_tools import farthest_point_sampling, load_model
        from proxyvote.synth import (NoiseSpec, PoseRanges, corrupt, make_scene,
                                     sample_pose, save_scene)
        from proxyvote.trainer import substream

        out = tmp_path / "gen"
        assert main(["gen", "--model", model_file, "--out", str(out), "--n", "3",
                     "--seed", "6", "--sigma", "3", "--flip-prob", "0.1",
                     "--occlusion", "0.2", "--z-min", "0.45", "--z-max", "0.7"]) == 0
        cloud = load_model(model_file)
        keys = cloud.points[farthest_point_sampling(cloud, 8)]
        intr = Intrinsics(80.0, 80.0, 32.0, 32.0)
        ranges = PoseRanges(z_range=(0.45, 0.7))
        base = int(substream(6, "noise").integers(2 ** 63))
        for i in range(3):
            rng = substream(6, "scene")
            for _ in range(i + 1):
                pose = sample_pose(rng, ranges, cloud, intr, 64, 64)
            sample = corrupt(make_scene(cloud, keys, pose, intr, 64, 64),
                             NoiseSpec(angular_sigma=3, flip_prob=0.1, occlusion_frac=0.2,
                                       rng_seed=base + i))
            ref = tmp_path / f"ref{i}"
            save_scene(ref, sample)
            d = out / f"sample_{i:03d}"
            names = sorted(os.listdir(ref))
            assert names == sorted(os.listdir(d))
            for f in names:
                assert (ref / f).read_bytes() == (d / f).read_bytes(), f"{d.name}/{f}"

    def test_noisy_field_files_match_dense_oracle(self, tmp_path, model_file):
        # the fields.npy of each scene of a noisy run, against the oracle
        # corruption of the replayed clean scene gathered one pixel at a time
        from proxyvote.geometry import Intrinsics
        from proxyvote.model_tools import farthest_point_sampling, load_model
        from proxyvote.synth import PoseRanges, load_scene, make_scene, sample_pose
        from proxyvote.trainer import substream

        out = tmp_path / "gen"
        assert main(["gen", "--model", model_file, "--out", str(out), "--n", "3",
                     "--seed", "4", "--sigma", "5", "--flip-prob", "0.1",
                     "--occlusion", "0.2", "--z-min", "0.45", "--z-max", "0.7"]) == 0
        cloud = load_model(model_file)
        keys = cloud.points[farthest_point_sampling(cloud, 8)]
        intr = Intrinsics(80.0, 80.0, 32.0, 32.0)
        rng = substream(4, "scene")
        base = int(substream(4, "noise").integers(2 ** 63))
        for n in range(3):
            pose = sample_pose(rng, PoseRanges(z_range=(0.45, 0.7)), cloud, intr, 64, 64)
            clean = make_scene(cloud, keys, pose, intr, 64, 64)
            mask, fields = oracle_corrupt(clean.gt_fields, clean.mask, 5.0, 0.1, 0.2, base + n)
            d = out / f"sample_{n:03d}"
            assert np.array_equal(load_scene(d).mask, mask)
            cells = [(i, j) for i in range(64) for j in range(64) if mask[i, j]]
            assert cells
            ref = np.array([[f[i, j] for i, j in cells] for f in fields])
            assert np.array_equal(np.load(d / "fields.npy").view(np.uint64), ref.view(np.uint64))

    def test_failure_manifest_lists_only_the_scenes_written(self, model_file, tmp_path,
                                                            capsys):
        out = tmp_path / "set"
        out.mkdir()
        (out / "sample_001").write_text("")  # where gen writes its second scene
        assert main(["gen", "--model", model_file, "--out", str(out), "--n", "2",
                     "--z-min", "0.45", "--z-max", "0.7"]) == 1
        err = capsys.readouterr().err
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["outputs"] == [str(out / "sample_000")]
        assert f"error: {doc['error']}\n" == err and "sample_001" in err

    def test_missing_model_is_usage_error(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_scene_count_below_one_is_usage_error(self, tmp_path, model_file, capsys, n):
        out = tmp_path / "x"
        assert main(["gen", "--model", model_file, "--out", str(out), "--n", n]) == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        "--sigma -1", "--keypoints 0", "--flip-prob 2", "--occlusion -0.5", "--z-min -1",
        "--z-min 0.7 --z-max 0.45", "--fx 0", "--fy -80", "--width 0", "--height 0",
        "--seed -1", "--sigma nan", "--sigma inf", "--z-max inf", "--z-min nan", "--fx inf",
        "--cx nan", "--margin nan"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, model_file, capsys, flags):
        out = tmp_path / "x"
        assert main(["gen", "--model", model_file, "--out", str(out)] + flags.split()) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", ["--keypoints 9", "--z-min 0.01 --z-max 0.02"])
    def test_model_or_pose_failure_leaves_no_out(self, tmp_path, model_file, capsys, flags):
        # 9 keypoints from the 8-point cube; a cube this close never fits the image
        out = tmp_path / "x"
        assert main(["gen", "--model", model_file, "--out", str(out)] + flags.split()) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_nonexistent_model_file(self, tmp_path):
        assert main(["gen", "--model", str(tmp_path / "no.ply"),
                     "--out", str(tmp_path / "x")]) == 1

    def test_malformed_model_header_is_an_error_line(self, tmp_path, capsys):
        model = tmp_path / "bad.ply"
        model.write_text(CUBE_PLY.replace("property float z", "property"))
        assert main(["gen", "--model", str(model), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: bad.ply: line 6: ")


class TestSceneDirs:
    def test_scenes_follow_their_number_past_999(self, tmp_path):
        names = ["sample_1000", "sample_101", "sample_099", "sample_100", "sample_x"]
        for name in names:
            (tmp_path / name).mkdir()
        dirs = cli._scene_dirs(str(tmp_path))
        assert [os.path.basename(d) for d in dirs] == [
            "sample_099", "sample_100", "sample_101", "sample_1000", "sample_x"]

    def test_no_scene_is_an_error(self, tmp_path):
        (tmp_path / "scene_000").mkdir()
        with pytest.raises(FileNotFoundError, match="no sample_"):
            cli._scene_dirs(str(tmp_path))


class TestVote:
    def test_writes_csv(self, scenes_dir, tmp_path):
        out = str(tmp_path / "votes.csv")
        assert main(["vote", "--scenes", scenes_dir, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "scene,keypoint,kx_voted,ky_voted,kx_true,ky_true,error_px,votes"
        assert len(lines) == 1 + 2 * 8  # 2 scenes x 8 keypoints
        # clean fields: every voted keypoint lands on the truth
        errs = [float(l.split(",")[6]) for l in lines[1:]]
        assert max(errs) < 1e-6

    def test_deterministic(self, scenes_dir, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["vote", "--scenes", scenes_dir, "--out", a, "--seed", "3"]) == 0
        assert main(["vote", "--scenes", scenes_dir, "--out", b, "--seed", "3"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_rerun_from_manifest_config(self, scenes_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["vote", "--scenes", scenes_dir, "--out", str(a / "votes.csv"),
                     "--seed", "3", "--num-samples", "200", "--inlier-cos", "0.98"]) == 0
        _replay(tmp_path, "vote", a, b / "votes.csv")
        _assert_same_outputs(a, b)

    def test_out_beside_another_commands_manifest_is_usage_error(self, model_file, tmp_path,
                                                                 monkeypatch, capsys):
        # vote's manifest would replace gen's; no scene is read
        scenes = tmp_path / "scenes"
        assert main(["gen", "--model", model_file, "--out", str(scenes), "--n", "1",
                     "--z-min", "0.45", "--z-max", "0.7"]) == 0
        gen_manifest = (scenes / "manifest.json").read_bytes()
        monkeypatch.setattr(cli, "load_scene", lambda d: pytest.fail("a scene was read"))
        assert main(["vote", "--scenes", str(scenes), "--out", str(scenes / "votes.csv")]) == 2
        assert "is not a vote manifest" in capsys.readouterr().err
        assert (scenes / "manifest.json").read_bytes() == gen_manifest
        assert sorted(os.listdir(scenes)) == ["manifest.json", "sample_000"]
        (tmp_path / "manifest.json").write_text("[]\n")  # JSON, but not a manifest
        assert main(["vote", "--scenes", str(scenes), "--out", str(tmp_path / "v.csv")]) == 2
        capsys.readouterr()
        (tmp_path / "manifest.json").write_text("not json\n")  # named, not a JSON error
        assert main(["vote", "--scenes", str(scenes), "--out", str(tmp_path / "v.csv")]) == 2
        assert capsys.readouterr().err == (f"usage error: {tmp_path / 'manifest.json'} is not "
                                           "a vote manifest; write --out to a directory of "
                                           "its own\n")

    def test_out_that_is_a_directory_leaves_no_temp_file(self, scenes_dir, tmp_path, capsys):
        out = tmp_path / "votes.csv"
        out.mkdir()
        assert main(["vote", "--scenes", scenes_dir, "--out", str(out)]) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.tmp"))

    def test_bad_fields_file_is_reported(self, scenes_dir, tmp_path, capsys):
        # an empty fields.npy (np.load raises EOFError) is an error naming the file
        scenes = tmp_path / "scenes"
        shutil.copytree(os.path.join(scenes_dir, "sample_000"), scenes / "sample_000")
        (scenes / "sample_000" / "fields.npy").write_bytes(b"")
        assert main(["vote", "--scenes", str(scenes), "--out", str(tmp_path / "v.csv")]) == 1
        assert "fields.npy" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage", [
        ("pose.json", lambda doc: json.dumps({k: v for k, v in json.loads(doc).items()
                                              if k != "fx"})),
        ("pose.json", lambda doc: json.dumps({**json.loads(doc),
                                              "rotation": json.loads(doc)["rotation"][:8]})),
        ("mask.pgm", lambda pgm: pgm.replace("\n64 64\n", "\n-1 -1\n", 1)),
        ("mask.pgm", lambda pgm: "\udcff" + pgm),
        ("keypoints.csv", lambda csv: "\udcff" + csv),
        ("pose.json", lambda doc: "\udcff" + doc),
    ], ids=["pose_without_fx", "pose_with_8_rotation_values", "mask_of_negative_size",
            "mask_not_utf8", "keypoints_not_utf8", "pose_not_utf8"])
    def test_bad_pose_or_mask_file_is_reported(self, scenes_dir, tmp_path, capsys, name, damage):
        # exit 1 with an error naming the file, not a traceback or a bare numpy message
        scenes = tmp_path / "scenes"
        shutil.copytree(os.path.join(scenes_dir, "sample_000"), scenes / "sample_000")
        path = scenes / "sample_000" / name
        # "\udcff" is written as the byte 0xff, which no UTF-8 text holds
        path.write_bytes(damage(path.read_text()).encode(errors="surrogateescape"))
        assert main(["vote", "--scenes", str(scenes), "--out", str(tmp_path / "v.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_vote_failure_is_a_failed_row(self, scenes_dir, tmp_path, monkeypatch, capsys):
        # keypoint 3 of scene 1 fails to vote; every other keypoint is voted
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["vote", "--scenes", scenes_dir, "--out", str(a)]) == 0
        failing_once(monkeypatch, trainer, "vote_keypoint",
                     DegenerateInputError("no pair"), at=8 + 3)
        assert main(["vote", "--scenes", scenes_dir, "--out", str(b)]) == 0
        assert "warning: scene 1: keypoint 3: no pair" in capsys.readouterr().err
        want, got = a.read_text().splitlines(), b.read_text().splitlines()
        assert got[:12] == want[:12] and got[13:] == want[13:]
        assert got[12].split(",")[:2] == ["1", "3"]
        assert got[12].split(",")[2:] == ["nan", "nan"] + want[12].split(",")[4:6] + ["inf", "0"]

    def test_vote_bug_propagates(self, scenes_dir, tmp_path, monkeypatch):
        failing_once(monkeypatch, trainer, "vote_keypoint", TypeError("bug"), at=0)
        with pytest.raises(TypeError):
            main(["vote", "--scenes", scenes_dir, "--out", str(tmp_path / "v.csv")])

    def test_value_error_bug_propagates(self, scenes_dir, tmp_path, monkeypatch):
        # a ValueError is no package error: not exit 1, and no failure manifest
        out = tmp_path / "v"
        out.mkdir()
        failing_once(monkeypatch, cli, "keypoint_errors", ValueError("bug"), at=0)
        with pytest.raises(ValueError, match="^bug$"):
            main(["vote", "--scenes", scenes_dir, "--out", str(out / "votes.csv")])
        assert os.listdir(out) == []

    def test_missing_scenes_dir(self, tmp_path):
        assert main(["vote", "--scenes", str(tmp_path / "none"),
                     "--out", str(tmp_path / "v.csv")]) == 1

    @pytest.mark.parametrize("flag, value", [("--num-samples", "0"), ("--inlier-cos", "2"),
                                             ("--seed", "-1")])
    def test_out_of_range_value_is_usage_error(self, scenes_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "v"
        assert main(["vote", "--scenes", scenes_dir, "--out", str(out / "votes.csv"),
                     flag, value]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_summary_and_records(self, scenes_dir, model_file, tmp_path):
        out = str(tmp_path / "eval")
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file,
                     "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["scenes"] == 2
        # clean fields give perfect poses
        assert summary["add_accuracy"] == 1.0
        assert summary["proj_accuracy"] == 1.0
        lines = open(os.path.join(out, "records.csv")).read().splitlines()
        assert lines[0] == "scene,add,proj2d,add_correct,proj_correct"
        assert len(lines) == 3

    @pytest.mark.parametrize("flag, value", [("--num-samples", "0"), ("--inlier-cos", "2"),
                                             ("--seed", "-1")])
    def test_out_of_range_value_is_usage_error(self, scenes_dir, model_file, tmp_path, capsys,
                                               flag, value):
        out = tmp_path / "eval"
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file, "--out", str(out),
                     flag, value]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_from_manifest_config(self, scenes_dir, model_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file, "--out", str(a),
                     "--symmetric", "--seed", "2", "--num-samples", "256"]) == 0
        _replay(tmp_path, "eval", a, b)
        _assert_same_outputs(a, b)

    @pytest.mark.parametrize("module, name, exc, at", [
        pytest.param(cli, "solve_epnp", DegenerateInputError("rank-deficient"), 0,
                     id="pose-error"),
        pytest.param(cli, "solve_epnp", np.linalg.LinAlgError("singular"), 0,
                     id="pose-linalg-error"),
        pytest.param(trainer, "vote_keypoint", DegenerateInputError("no pair"), 2,
                     id="keypoint-error")])
    def test_pose_failure_is_recorded(self, scenes_dir, model_file, tmp_path, monkeypatch,
                                      capsys, module, name, exc, at):
        # scene 0 fails, in its pose or in one keypoint; scene 1 is still scored
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file, "--out", str(a),
                     "--symmetric"]) == 0
        failing_once(monkeypatch, module, name, exc, at)
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file, "--out", str(b),
                     "--symmetric"]) == 0
        reason = f"keypoint {at}: {exc}" if module is trainer else str(exc)
        assert f"warning: scene 0: {reason}\n" in capsys.readouterr().err
        want = (a / "records.csv").read_text().splitlines()
        got = (b / "records.csv").read_text().splitlines()
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1] == "0,nan,nan,0,0,nan,0"
        summary = json.loads((b / "summary.json").read_text())
        assert summary["scenes"] == 2 and summary["failed"] == 1
        assert summary["add_accuracy"] == summary["proj_accuracy"] == 0.5
        assert summary["add_s_accuracy"] == 0.5
        assert json.loads((a / "summary.json").read_text())["failed"] == 0

    def test_pose_bug_propagates(self, scenes_dir, model_file, tmp_path, monkeypatch):
        failing_once(monkeypatch, cli, "solve_epnp", TypeError("bug"), at=0)
        with pytest.raises(TypeError):
            main(["eval", "--scenes", scenes_dir, "--model", model_file,
                  "--out", str(tmp_path / "e")])

    def test_symmetric_adds_columns(self, scenes_dir, model_file, tmp_path):
        out = str(tmp_path / "eval_s")
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file,
                     "--out", out, "--symmetric"]) == 0
        lines = open(os.path.join(out, "records.csv")).read().splitlines()
        assert lines[0].endswith(",add_s,add_s_correct")
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert "add_s_accuracy" in summary


class TestSizeBounds:
    """A size past the bound README names is a usage error. Each value is one
    the check rejects before anything is allocated; none near a bound runs."""

    @staticmethod
    def _run(tmp_path, argv, key, value, via):
        if via == "config":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({key: value}))
            return main(argv + ["--config", str(cfg)])
        return main(argv + [f"--{key.replace('_', '-')}", str(value)])

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key, bound", [("n", 100000), ("width", 2048), ("height", 2048)])
    @pytest.mark.parametrize("past", ["bound_plus_1", "1e30"])
    def test_gen(self, tmp_path, model_file, capsys, via, key, bound, past):
        out = tmp_path / "g"
        value = bound + 1 if past == "bound_plus_1" else 10 ** 30
        argv = ["gen", "--model", model_file, "--out", str(out)]
        assert self._run(tmp_path, argv, key, value, via) == 2
        assert f"--{key} must be at most {bound}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["vote", "eval"])
    @pytest.mark.parametrize("past", ["bound_plus_1", "1e30"])
    def test_num_samples(self, tmp_path, scenes_dir, model_file, capsys, via, command, past):
        out = tmp_path / "o"
        value = 100001 if past == "bound_plus_1" else 10 ** 30
        argv = ([command, "--scenes", scenes_dir, "--out", str(out / "votes.csv")]
                if command == "vote" else
                [command, "--scenes", scenes_dir, "--model", model_file, "--out", str(out)])
        assert self._run(tmp_path, argv, "num_samples", value, via) == 2
        assert "num_samples must be in [1, 100000]" in capsys.readouterr().err
        assert not out.exists()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenDigests:
    """Each command writes the bytes it wrote when its digests were taken;
    a change that alters them on purpose updates these. Vote and eval's
    records were taken once hypotheses came only from rays that meet in
    front of both pixels."""

    VOTES = "da8ed6d67fc2cc56807952694fb7674aac590e5bcaaf3ef73d6dd2a3949e8676"
    RECORDS = "bad1bf48c9a327890832ab4a72f3194e81a3fcbfc031820291e286c2c4df3ff0"
    SUMMARY = "7362a344eeec352cf31f5b2f43fc40ac4946d3d42e644eeb059fd1787fac8994"
    # eval without --symmetric; its summary was taken while every eval
    # still scored ADD-S and took the diameter from scipy's pdist
    PLAIN_RECORDS = "126c843f22a7e38f2abb915b09e67646851da1d9e1443ee650eb3480df314c0a"
    PLAIN_SUMMARY = "ea99238745e30e4e8388ee25a9e1ed8dc1feb5a423ea90f110c2cde3d74b28ca"

    def test_vote_and_eval_outputs(self, model_file, tmp_path):
        scenes = str(tmp_path / "scenes")
        assert main(["gen", "--model", model_file, "--out", scenes, "--n", "3",
                     "--seed", "11", "--z-min", "0.45", "--z-max", "0.7",
                     "--sigma", "5", "--flip-prob", "0.1", "--occlusion", "0.2"]) == 0
        votes = tmp_path / "vote" / "votes.csv"
        assert main(["vote", "--scenes", scenes, "--out", str(votes), "--seed", "3"]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--scenes", scenes, "--model", model_file, "--out", str(out),
                     "--symmetric", "--seed", "3"]) == 0
        plain = tmp_path / "eval_plain"
        assert main(["eval", "--scenes", scenes, "--model", model_file, "--out", str(plain),
                     "--seed", "3"]) == 0
        assert sha256(votes) == self.VOTES
        assert sha256(out / "records.csv") == self.RECORDS
        assert sha256(out / "summary.json") == self.SUMMARY
        assert sha256(plain / "records.csv") == self.PLAIN_RECORDS
        assert sha256(plain / "summary.json") == self.PLAIN_SUMMARY

    # gen's files of the same noisy set, taken before scipy's import was
    # made lazy; the manifest is left out, as it records paths and wall time
    SCENE_FILES = {
        "sample_000/fields.npy": "a5ad288cc2e5b60a480070e7ea9bf7bca4cc8efca766ff3188cbd2a1aa6d3fca",
        "sample_000/keypoints.csv": "4f4e945c336d3cc14e1afbfed609db8e1c346fe0fab9943b10d4c95ab2f786d5",
        "sample_000/mask.pgm": "533d726f0b7e01b6e54a3dc733bc4e404a008a0fdefa97f3e8814ebdd2001b37",
        "sample_000/pose.json": "917298ddc86dd275c273ba34b981e2d46ea087632b64a5a6fa883823945aa16c",
        "sample_001/fields.npy": "0b72dffddf6db53328448f81f0ea864f2ad567548e2c139ab92cdf29ba7b0d06",
        "sample_001/keypoints.csv": "b2f46f4c5dd65156ed4ae957daf78e7de9769dd571addd25ef18c234c2a13647",
        "sample_001/mask.pgm": "00af4d310ef13599f42d223ff29f75c2d9fa00f67bb2fcf98644ca777c54d403",
        "sample_001/pose.json": "2cacca04fb445e5d315b1576da371470731b3eb4f301c6c6b7d402141b30bdae",
        "sample_002/fields.npy": "a682206ef47285dfacfb19a2a017259903c2ff1df955672acaa4c55129773b46",
        "sample_002/keypoints.csv": "bd660c0b0818e0ca1aa81a74b6a6eb517bb82856ac1c14b34c4d762f5ca15a0f",
        "sample_002/mask.pgm": "26721effe4148c16b41564995ce322c76fa27e27f348bd1d911f86f3d526116e",
        "sample_002/pose.json": "75ece9a07da9c789a69130d6e09c297af8f679cb8bf559b08c2f743dedb34541",
    }

    def test_gen_outputs(self, model_file, tmp_path):
        scenes = tmp_path / "scenes"
        assert main(["gen", "--model", model_file, "--out", str(scenes), "--n", "3",
                     "--seed", "11", "--z-min", "0.45", "--z-max", "0.7",
                     "--sigma", "5", "--flip-prob", "0.1", "--occlusion", "0.2"]) == 0
        digests = {p.relative_to(scenes).as_posix(): sha256(p)
                   for p in scenes.rglob("*") if p.is_file() and p.name != "manifest.json"}
        assert digests == self.SCENE_FILES

    # train's files on the clean 2-scene set, taken once the fit ran on
    # affine coefficients from a masked init at lr 3e-3 and voting kept
    # only forward hypotheses; the manifest is left out
    TRAIN_FILES = {
        "fields/vf_only_seed0/sample_000/fields.npy": "6c9f214c610595449237928ba932b125558ea80e2730a81b7dac5cc913d31f9d",
        "fields/vf_only_seed0/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_only_seed0/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_only_seed0/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_only_seed0/sample_001/fields.npy": "e2564eb5349794d55d52658628f71b44f756e75413ca3eb37e2d7c18276de899",
        "fields/vf_only_seed0/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_only_seed0/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_only_seed0/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "fields/vf_only_seed1/sample_000/fields.npy": "070982ee0fabef0da3c130b7bfbc2cf5232dfeab518519b8cf90f8f2a2187ab4",
        "fields/vf_only_seed1/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_only_seed1/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_only_seed1/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_only_seed1/sample_001/fields.npy": "55bccb87cb6adb7bdd7311671204120aae2387bb17075e7466dab262490c3758",
        "fields/vf_only_seed1/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_only_seed1/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_only_seed1/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "fields/vf_plus_dpvl_seed0/sample_000/fields.npy": "fc3c6769e5bc9f2ad771752fcea60d3c8af18687abcb702be078faad408091ba",
        "fields/vf_plus_dpvl_seed0/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_plus_dpvl_seed0/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_plus_dpvl_seed0/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_plus_dpvl_seed0/sample_001/fields.npy": "c49fe412c842552985bbcc36e89e68b1223ef60e97080a0ed2702e1fa69e44a0",
        "fields/vf_plus_dpvl_seed0/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_plus_dpvl_seed0/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_plus_dpvl_seed0/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "fields/vf_plus_dpvl_seed1/sample_000/fields.npy": "9b0e03719bbef170d4206153ed6ffb36ba6afe3c41d09bbd713715d7429689b8",
        "fields/vf_plus_dpvl_seed1/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_plus_dpvl_seed1/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_plus_dpvl_seed1/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_plus_dpvl_seed1/sample_001/fields.npy": "8955188bb7435d1d4944c0288ac377330a398a3468eae5bd37e6bf1b2df2ebc6",
        "fields/vf_plus_dpvl_seed1/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_plus_dpvl_seed1/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_plus_dpvl_seed1/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "summary.json": "892838182faaa518be2fcb8517ca1d321c4d688d3328f6dd01abd6f36a4d22f7",
        "summary_scene000_vf_only_seed0.json": "e9658719ed3fc18447fca3eb5dc47947d462e872776e6e3cf91977ae27c99286",
        "summary_scene000_vf_only_seed1.json": "f1436b0f3f3089f938b93fab4a63b87f14587e8dd96eb823c3588e8c5c214e05",
        "summary_scene000_vf_plus_dpvl_seed0.json": "47d94293d6419b6e4364ef04851fb774943d4834795071233e3e0a2422823fae",
        "summary_scene000_vf_plus_dpvl_seed1.json": "78d67585fc367323be5c63a2528bdf22ce2554a8e00d8b58d544ad73868788a5",
        "summary_scene001_vf_only_seed0.json": "8ac5c3b8bec06a21561c5f93ada9371d56d46e333888b2409200e93eb704731f",
        "summary_scene001_vf_only_seed1.json": "9509b46d1507ae1e79f82aa0b52c2a29c404e2c46849f1fc1eb2bcbf4f1eb388",
        "summary_scene001_vf_plus_dpvl_seed0.json": "c9e05079c970407192fd8c0acc46e56d51ceda418280db9f2beb8ff8a843c670",
        "summary_scene001_vf_plus_dpvl_seed1.json": "ab79f06393c064021b50929bc5b08428671046bb8006db1062a312bd43b03be3",
        "trace_scene000_vf_only_seed0.csv": "3d54573e510b9eb2bdc21ff1e0b6d67c3469013229c47da98c2bb6c89db2c96d",
        "trace_scene000_vf_only_seed1.csv": "0be6807b03be2959fecee53a89b42b2e4550b82cec4638cbfc1254e602849ec3",
        "trace_scene000_vf_plus_dpvl_seed0.csv": "37481d70c637e44a26f4df8b89047197ad25d817b610f1fd200ce6b452047c4e",
        "trace_scene000_vf_plus_dpvl_seed1.csv": "c100feabd2599973c41ed7a2ef72643c399eeb3c602757847d8eda3bfc2e4a46",
        "trace_scene001_vf_only_seed0.csv": "841ba5037f7ce10f295f891b4fba717cd9ba2964c4b22b7cab3ef30ad76e7b70",
        "trace_scene001_vf_only_seed1.csv": "3ae7ca3b269b46cc5be9a7d4a5640c0c144890e6e4c6a30a32c72dac249c228f",
        "trace_scene001_vf_plus_dpvl_seed0.csv": "379d2ff5ff53cbeb12257fd1b267be5cf7eb5c5de3c5d85c5e8d427d55090831",
        "trace_scene001_vf_plus_dpvl_seed1.csv": "f80ebd29a2825d7190c4273c3623a36878b2316d04e198b6805579a0f9098b9f",
    }

    TRAIN_ARGS = ["--mode", "vf_only,vf_plus_dpvl", "--seeds", "0,1", "--iters", "30",
                  "--iters-per-epoch", "10"]

    def test_train_outputs(self, scenes_dir, tmp_path):
        out = tmp_path / "train"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out), *self.TRAIN_ARGS]) == 0
        digests = {p.relative_to(out).as_posix(): sha256(p)
                   for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
        assert digests == self.TRAIN_FILES

    # report's files over the same train run, taken once iterations to
    # the threshold read the traced mean proxy distance
    REPORT_FILES = {
        "curves.csv": "3fad32098680ec5c93f3ca2af2cb0c0660651cf2aad531d683bea31a6339c686",
        "report.txt": "02916ddd6a50d8479858082a0b492d3ac2e8d549f848d2d2a3cbdc100fde9d51",
        "report.json": "7199230228b7fa8a984353a4d4021cdc437acb32ce59c7e057d500bb715223fc",
    }

    def test_report_outputs(self, scenes_dir, tmp_path):
        train, out = tmp_path / "train", tmp_path / "report"
        assert main(["train", "--scenes", scenes_dir, "--out", str(train),
                     *self.TRAIN_ARGS]) == 0
        assert main(["report", "--traces", str(train), "--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in self.REPORT_FILES} == self.REPORT_FILES


@pytest.fixture(scope="module")
def train_dir(scenes_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train") / "run")
    rc = main(["train", "--scenes", scenes_dir, "--out", out,
               "--mode", "vf_only,vf_plus_dpvl", "--seeds", "0",
               "--iters", "120", "--scene-limit", "1"])
    assert rc == 0
    return out


class TestTrainAndReport:
    def test_train_outputs(self, train_dir):
        names = os.listdir(train_dir)
        assert "summary.json" in names and "manifest.json" in names
        assert "trace_scene000_vf_only_seed0.csv" in names
        assert "trace_scene000_vf_plus_dpvl_seed0.csv" in names
        summary = json.loads(open(os.path.join(train_dir, "summary.json")).read())
        assert {r["mode"] for r in summary["runs"]} == {"vf_only", "vf_plus_dpvl"}
        fields = Path(train_dir) / "fields"
        assert sorted(os.listdir(fields)) == ["vf_only_seed0", "vf_plus_dpvl_seed0"]
        for d in fields.iterdir():
            assert os.listdir(d) == ["sample_000"]
            assert sorted(os.listdir(d / "sample_000")) == ["fields.npy", "keypoints.csv",
                                                            "mask.pgm", "pose.json"]

    def test_train_manifest_has_no_error(self, train_dir):
        doc = json.loads((Path(train_dir) / "manifest.json").read_text())
        assert sorted(doc) == ["command", "config", "outputs", "seeds", "version",
                               "wall_time_s"]

    def test_diverged_fit_writes_a_failure_manifest(self, scenes_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out),
                     "--lr", "1e300", "--iters", "5"]) == 1
        assert "non-finite loss at iteration 2" in capsys.readouterr().err
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "train" and doc["config"]["lr"] == 1e300
        assert doc["error"] == "non-finite loss at iteration 2"
        assert doc["outputs"] == []
        assert os.listdir(out) == ["manifest.json"]

    def test_failed_fit_records_the_runs_before_it(self, scenes_dir, tmp_path, monkeypatch):
        failing_once(monkeypatch, trainer, "fit_field",
                     DivergenceError("non-finite loss at iteration 7"), at=1)
        out = tmp_path / "run"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out),
                     "--mode", "vf_only,vf_plus_dpvl", "--iters", "20"]) == 1
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["error"] == "non-finite loss at iteration 7"
        written = sorted(str(out / f) for f in os.listdir(out) if f != "manifest.json")
        assert doc["outputs"] == written
        assert [os.path.basename(f) for f in written] == [
            "fields", "summary_scene000_vf_only_seed0.json", "trace_scene000_vf_only_seed0.csv"]

    def test_io_failure_writes_a_failure_manifest(self, scenes_dir, tmp_path, capsys):
        # a directory where train writes summary.json: the run fails on I/O
        # after writing its fit
        out = tmp_path / "run"
        (out / "summary.json").mkdir(parents=True)
        assert main(["train", "--scenes", scenes_dir, "--out", str(out), "--mode", "vf_only",
                     "--iters", "5", "--scene-limit", "1"]) == 1
        assert "Is a directory" in capsys.readouterr().err
        doc = json.loads((out / "manifest.json").read_text())
        assert "Is a directory" in doc["error"]
        assert doc["outputs"] == [str(out / f) for f in (
            "fields", "summary_scene000_vf_only_seed0.json", "trace_scene000_vf_only_seed0.csv")]

    def test_manifest_names_only_its_own_runs(self, scenes_dir, tmp_path):
        # a second train into the same --out lists its files, not the first's
        out = tmp_path / "run"
        for mode in ("vf_only", "dpvl_only"):
            assert main(["train", "--scenes", scenes_dir, "--out", str(out), "--mode", mode,
                         "--iters", "5", "--scene-limit", "1"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["outputs"] == [str(out / f) for f in (
            "fields", "summary.json", "summary_scene000_dpvl_only_seed0.json",
            "trace_scene000_dpvl_only_seed0.csv")]

    def test_vote_reproduces_the_fit_errors(self, train_dir, tmp_path):
        # vote --seed s over fields/<mode>_seed<s>/ gives each fit's
        # keypoint errors bit for bit
        summary = json.loads(open(os.path.join(train_dir, "summary.json")).read())
        for run in summary["runs"]:
            out = tmp_path / run["mode"] / "votes.csv"
            fitted = os.path.join(train_dir, "fields", f"{run['mode']}_seed{run['seed']}")
            assert main(["vote", "--scenes", fitted, "--out", str(out),
                         "--seed", str(run["seed"])]) == 0
            rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
            assert [float(r[6]) for r in rows if int(r[0]) == run["scene"]] \
                == run["keypoint_errors"]

    def test_eval_scores_fitted_fields(self, scenes_dir, model_file, tmp_path):
        # eval over train's fitted scenes scores with the model cloud and
        # its diameter, the one ADD rule
        train = tmp_path / "train"
        assert main(["train", "--scenes", scenes_dir, "--out", str(train),
                     "--mode", "vf_only,vf_plus_dpvl", "--seeds", "1", "--iters", "400"]) == 0
        cloud = load_model(model_file)
        vcfg = VotingConfig(rng_seed=int(substream(1, "voting").integers(2 ** 63)))
        summary = json.loads((train / "summary.json").read_text())
        for run in summary["runs"]:
            fitted = train / "fields" / f"{run['mode']}_seed1"
            out = tmp_path / run["mode"]
            assert main(["eval", "--scenes", str(fitted), "--model", model_file,
                         "--out", str(out), "--seed", "1"]) == 0
            assert json.loads((out / "summary.json").read_text())["failed"] == 0
            s = load_scene(fitted / f"sample_{run['scene']:03d}")
            locs, _, failures = vote_keypoints(s.fields, s.mask, vcfg)
            assert not failures
            assert list(keypoint_errors(locs, s.keypoints2)) == run["keypoint_errors"]
            rec = evaluate(s.pose, solve_epnp(s.keypoints3, locs, s.intr), cloud,
                           s.intr, model_diameter(cloud))
            row = (out / "records.csv").read_text().splitlines()[1 + run["scene"]]
            assert row == ",".join([str(run["scene"]), repr(rec.add), repr(rec.proj2d),
                                    str(int(rec.add_correct)), str(int(rec.proj_correct))])

    def test_train_rerun_from_manifest_config(self, train_dir, tmp_path):
        out = tmp_path / "t"
        _replay(tmp_path, "train", train_dir, out)
        _assert_same_outputs(train_dir, out)

    def test_report_rerun_from_manifest_config(self, train_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["report", "--traces", train_dir, "--out", str(a),
                     "--lpv-threshold", "5000"]) == 0
        _replay(tmp_path, "report", a, b)
        _assert_same_outputs(a, b)

    def test_bad_mode_is_usage_error(self, scenes_dir, tmp_path):
        assert main(["train", "--scenes", scenes_dir,
                     "--out", str(tmp_path / "t"), "--mode", "bogus"]) == 2

    def test_negative_scene_limit_is_usage_error(self, scenes_dir, tmp_path, capsys):
        # a negative limit would slice the last scenes off, not limit them
        out = tmp_path / "t"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out),
                     "--iters", "5", "--scene-limit", "-1"]) == 2
        assert "--scene-limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", ","), ("--iters", "0"), ("--iters-per-epoch", "0"),
        ("--iters-per-epoch", "-5"), ("--lr", "nan"), ("--lr", "inf"), ("--beta0", "-1"),
        ("--beta-cap", "nan"), ("--seeds", "-1"), ("--seeds", "0,-1"), ("--mode", ","),
        ("--mode", "vf_only,vf_only"), ("--seeds", "0,0")])
    def test_out_of_range_value_is_usage_error(self, scenes_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "t"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out), "--iters", "5",
                     flag, value]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_more_epochs_than_the_schedule_float_holds(self, scenes_dir, tmp_path):
        # 1,800 one-iteration epochs: BETA_FACTOR ** epoch overflows a float
        out = tmp_path / "t"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out), "--mode", "vf_plus_dpvl",
                     "--seeds", "0", "--iters", "1800", "--iters-per-epoch", "1",
                     "--scene-limit", "1"]) == 0
        assert (out / "manifest.json").exists()

    def test_report(self, train_dir, tmp_path):
        out = str(tmp_path / "report")
        assert main(["report", "--traces", train_dir, "--out", out]) == 0
        rep = json.loads(open(os.path.join(out, "report.json")).read())
        assert set(rep) == {"vf_only", "vf_plus_dpvl"}
        for mode in rep:
            assert rep[mode]["n_traces"] == 1
        curves = open(os.path.join(out, "curves.csv")).read().splitlines()
        assert curves[0].startswith("iter,")
        assert len(curves) == 121

    def test_report_keeps_scenes_apart(self, scenes_dir, tmp_path):
        # traces of different scenes with the same mode and seed are
        # separate curves of that mode, not overwrites of one another
        train = str(tmp_path / "train")
        assert main(["train", "--scenes", scenes_dir, "--out", train,
                     "--mode", "vf_only,vf_plus_dpvl", "--seeds", "0",
                     "--iters", "20", "--scene-limit", "2"]) == 0
        out = str(tmp_path / "report")
        assert main(["report", "--traces", train, "--out", out]) == 0
        rep = json.loads(open(os.path.join(out, "report.json")).read())
        assert {mode: rep[mode]["n_traces"] for mode in rep} == {"vf_only": 2,
                                                                  "vf_plus_dpvl": 2}
        header = open(os.path.join(out, "curves.csv")).readline().strip().split(",")
        assert header == ["iter", "scene000_vf_only_seed0_l_pv",
                          "scene000_vf_plus_dpvl_seed0_l_pv", "scene001_vf_only_seed0_l_pv",
                          "scene001_vf_plus_dpvl_seed0_l_pv"]

    def test_report_keeps_directories_apart(self, scenes_dir, tmp_path):
        # equal trace names in different directories are separate curves
        dirs = [str(tmp_path / name) for name in ("a", "b")]
        for out in dirs:
            assert main(["train", "--scenes", scenes_dir, "--out", out,
                         "--mode", "vf_only,vf_plus_dpvl", "--seeds", "0",
                         "--iters", "20", "--scene-limit", "1"]) == 0
        out = str(tmp_path / "report")
        assert main(["report", "--traces", *dirs, "--out", out]) == 0
        rep = json.loads(open(os.path.join(out, "report.json")).read())
        assert {mode: rep[mode]["n_traces"] for mode in rep} == {"vf_only": 2,
                                                                  "vf_plus_dpvl": 2}
        header = open(os.path.join(out, "curves.csv")).readline().strip().split(",")
        assert header == ["iter", "a/scene000_vf_only_seed0_l_pv",
                          "a/scene000_vf_plus_dpvl_seed0_l_pv", "b/scene000_vf_only_seed0_l_pv",
                          "b/scene000_vf_plus_dpvl_seed0_l_pv"]

    def test_report_reads_only_the_names_train_writes(self, train_dir, tmp_path):
        # a file whose name only contains a trace name is not a trace
        traces = tmp_path / "traces"
        shutil.copytree(train_dir, traces)
        lines = (traces / "trace_scene000_vf_only_seed0.csv").read_text().splitlines()
        (traces / "xtrace_scene000_vf_only_seed0.csv").write_text("\n".join(
            [lines[0]] + [",".join(["999"] * len(r.split(","))) for r in lines[1:]]) + "\n")
        for d, out in ((train_dir, tmp_path / "a"), (traces, tmp_path / "b")):
            assert main(["report", "--traces", str(d), "--out", str(out)]) == 0
        for f in ("curves.csv", "report.txt", "report.json"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_report_rejects_a_file_not_named_as_a_trace(self, train_dir, tmp_path, capsys):
        # report takes the mode from the name, so this file has none
        trace = tmp_path / "mytrace.csv"
        shutil.copy(os.path.join(train_dir, "trace_scene000_vf_only_seed0.csv"), trace)
        out = tmp_path / "r"
        assert main(["report", "--traces", str(trace), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {trace}: ")
        assert not out.exists()

    def test_report_of_a_directory_with_no_trace(self, scenes_dir, tmp_path, capsys):
        assert main(["report", "--traces", scenes_dir, "--out", str(tmp_path / "r")]) == 1
        assert "no trace CSV files found" in capsys.readouterr().err

    def test_report_row_mismatch(self, train_dir, tmp_path):
        short = tmp_path / "trace_scene000_vf_only_seed9.csv"
        src = open(os.path.join(train_dir, "trace_scene000_vf_only_seed0.csv")).read()
        short.write_text("\n".join(src.splitlines()[:50]) + "\n")
        rc = main(["report", "--traces",
                   os.path.join(train_dir, "trace_scene000_vf_only_seed0.csv"),
                   str(short), "--out", str(tmp_path / "r")])
        assert rc == 1

    @pytest.mark.parametrize("damage", ["missing_column", "ragged_row", "short_row",
                                        "non_numeric", "header_only", "not_utf8"])
    def test_report_bad_trace_names_the_file(self, train_dir, tmp_path, capsys, damage):
        lines = open(os.path.join(train_dir, "trace_scene000_vf_only_seed0.csv")).read()
        lines = lines.splitlines()
        if damage == "missing_column":  # drop mean_proxy_dist
            lines = [",".join(c for i, c in enumerate(x.split(",")) if i != 3) for x in lines]
        elif damage == "ragged_row":  # one value too many, one too few: same total
            lines[5] += ",1.0"
            lines[9] = lines[9].rsplit(",", 1)[0]
        elif damage == "short_row":
            lines[7] = lines[7].rsplit(",", 1)[0]
        elif damage == "non_numeric":
            lines[3] = lines[3].replace(",", ",x", 1)
        elif damage == "not_utf8":  # written as the byte 0xff, which no UTF-8 text holds
            lines[1] = "\udcff" + lines[1]
        else:
            lines = lines[:1]
        bad = tmp_path / "trace_scene000_vf_only_seed3.csv"
        bad.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
        assert main(["report", "--traces", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert str(bad) in capsys.readouterr().err

    def test_threshold_is_on_the_mean_proxy_distance(self, tmp_path):
        # the traced l_pv is a sum over masked pixels and keypoints, far
        # above a per-pixel threshold; iterations-to-threshold read the
        # traced mean_proxy_dist, in px
        trace = tmp_path / "trace_scene000_vf_only_seed0.csv"
        trace.write_text("iter,l_vf,l_pv,mean_proxy_dist,beta\n"
                         "0,9.0,2500.0,4.0,0.001\n1,8.0,1800.0,1.5,0.001\n"
                         "2,7.0,1200.0,0.9,0.001\n3,6.0,900.0,0.8,0.001\n")
        for flags, want in (([], 2.0), (["--lpv-threshold", "1.5"], 1.0),
                            (["--lpv-threshold", "0.5"], np.inf)):
            out = tmp_path / f"r{want}"
            assert main(["report", "--traces", str(trace), "--out", str(out), *flags]) == 0
            rep = json.loads((out / "report.json").read_text())["vf_only"]
            assert rep["median_iters_to_threshold"] == want

    @pytest.mark.parametrize("value", ["nan", "-0.5", "-inf"])
    def test_threshold_no_trace_can_reach_is_usage_error(self, train_dir, tmp_path, capsys,
                                                         value):
        out = tmp_path / "r"
        assert main(["report", "--traces", train_dir, "--out", str(out),
                     f"--lpv-threshold={value}"]) == 2
        assert "usage error: --lpv-threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_threshold_is_reached_at_once(self, train_dir, tmp_path):
        out = tmp_path / "r"
        assert main(["report", "--traces", train_dir, "--out", str(out),
                     "--lpv-threshold", "inf"]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert {r["median_iters_to_threshold"] for r in rep.values()} == {0.0}

    def test_report_reads_a_one_row_trace(self, tmp_path):
        trace = tmp_path / "trace_scene000_vf_only_seed0.csv"
        trace.write_text("iter,l_vf,l_pv,mean_proxy_dist,alpha,beta\n0,1.5,0.25,3.0,1.0,0.001\n")
        out = tmp_path / "r"
        assert main(["report", "--traces", str(trace), "--out", str(out)]) == 0
        assert (out / "curves.csv").read_text() == "iter,scene000_vf_only_seed0_l_pv\n0,0.25\n"
        assert json.loads((out / "report.json").read_text())["vf_only"]["n_traces"] == 1


def _tree(d) -> dict:
    """Every path under d, relative to d, with its bytes; None for a directory."""
    return {p.relative_to(d): None if p.is_dir() else p.read_bytes() for p in d.rglob("*")}


class TestManifestClaim:
    """A run's manifest.json would replace the one in its output directory:
    main refuses one of another command before the run reads or writes."""

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "report"])
    def test_out_holding_another_commands_manifest_is_usage_error(
            self, model_file, scenes_dir, train_dir, tmp_path, capsys, command):
        scenes, traces = tmp_path / "scenes", tmp_path / "train"
        shutil.copytree(scenes_dir, scenes)
        shutil.copytree(train_dir, traces)
        argv = {"gen": ["gen", "--model", model_file, "--n", "1", "--z-min", "0.45",
                        "--z-max", "0.7"],
                "train": ["train", "--scenes", str(scenes), "--iters", "5",
                          "--scene-limit", "1"],
                "eval": ["eval", "--scenes", str(scenes), "--model", model_file],
                "report": ["report", "--traces", str(traces)]}[command]
        other = traces if command == "gen" else scenes
        before = _tree(other)
        assert main(argv + ["--out", str(other)]) == 2
        assert capsys.readouterr().err == (f"usage error: {other / 'manifest.json'} is not "
                                           f"a {command} manifest; write --out to a "
                                           "directory of its own\n")
        assert _tree(other) == before
        for _ in range(2):  # a rerun into its own directory
            assert main(argv + ["--out", str(tmp_path / "own")]) == 0

    def test_failed_rerun_that_wrote_nothing_keeps_the_manifest(self, model_file, tmp_path,
                                                                 capsys):
        out = tmp_path / "g"
        argv = ["gen", "--out", str(out), "--n", "2", "--z-min", "0.45", "--z-max", "0.7"]
        assert main(argv + ["--model", model_file]) == 0
        before = _tree(out)
        assert main(argv + ["--model", str(tmp_path / "nosuch.ply")]) == 1
        assert "nosuch.ply" in capsys.readouterr().err
        assert _tree(out) == before
        # a rerun that fails after writing a scene records that it failed
        (out / "sample_002").write_text("")
        assert main(argv + ["--model", model_file, "--n", "3"]) == 1
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["outputs"] == [str(out / "sample_000"), str(out / "sample_001")]
        assert "sample_002" in doc["error"]


# run in a fresh interpreter: imports the package, runs each command and
# prints, per step, its exit code and whether any scipy module is loaded
_START_UP = """
import json, sys
import proxyvote, proxyvote.cli
model, tmp = sys.argv[1:]
scenes, fits = tmp + "/scenes", tmp + "/train"
steps = [
    ["gen", "--model", model, "--out", scenes, "--n", "1", "--z-min", "0.45", "--z-max", "0.7"],
    ["train", "--scenes", scenes, "--out", fits, "--iters", "3"],
    ["vote", "--scenes", scenes, "--out", tmp + "/vote/votes.csv"],
    ["report", "--traces", fits, "--out", tmp + "/report"],
    ["eval", "--scenes", scenes, "--model", model, "--out", tmp + "/eval"],
    ["eval", "--scenes", scenes, "--model", model, "--out", tmp + "/eval_s", "--symmetric"],
]
def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)
print(json.dumps(["import", 0, scipy_loaded()]))
for argv in steps:
    rc = proxyvote.cli.main(argv)
    print(json.dumps([argv[0], rc, scipy_loaded()]))
"""


def _env(pytestconfig) -> dict:
    """The environment of a fresh interpreter that imports the package from
    this tree and turns warnings into errors as pytest's filterwarnings do."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                PYTHONWARNINGS=",".join(pytestconfig.getini("filterwarnings")))


def test_only_eval_loads_scipy(model_file, tmp_path, pytestconfig):
    proc = subprocess.run([sys.executable, "-c", _START_UP, model_file, str(tmp_path)],
                          env=_env(pytestconfig), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert steps == [["import", 0, False], ["gen", 0, False], ["train", 0, False],
                     ["vote", 0, False], ["report", 0, False], ["eval", 0, False],
                     ["eval", 0, True]]


@pytest.mark.parametrize("argv, code, prefix", [
    (["gen", "--out", "x"], 2, "usage error: "),
    (["vote", "--scenes", "none", "--out", "v.csv"], 1, "error: ")])
def test_module_entry_point(tmp_path, pytestconfig, argv, code, prefix):
    # python -m proxyvote.cli exits with main's code
    proc = subprocess.run([sys.executable, "-m", "proxyvote.cli", *argv], cwd=tmp_path,
                          env=_env(pytestconfig), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix)


class TestVersion:
    def test_not_installed_is_unknown(self, monkeypatch):
        def missing(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", missing)
        assert cli._version() == "unknown"

    def test_bug_propagates(self, monkeypatch):
        def broken(name):
            raise TypeError("bug")

        monkeypatch.setattr(importlib.metadata, "version", broken)
        with pytest.raises(TypeError):
            cli._version()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
