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
from proxyvote.errors import (DegenerateConfigurationError, DivergenceError,
                              NoValidHypothesisError)
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
        assert not out.exists()

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
        keys = farthest_point_sampling(cloud, 8)
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
        keys = farthest_point_sampling(cloud, 8)
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
        "--seed -1"])
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
    ], ids=["pose_without_fx", "pose_with_8_rotation_values", "mask_of_negative_size"])
    def test_bad_pose_or_mask_file_is_reported(self, scenes_dir, tmp_path, capsys, name, damage):
        # exit 1 with an error naming the file, not a traceback or a bare numpy message
        scenes = tmp_path / "scenes"
        shutil.copytree(os.path.join(scenes_dir, "sample_000"), scenes / "sample_000")
        path = scenes / "sample_000" / name
        path.write_text(damage(path.read_text()))
        assert main(["vote", "--scenes", str(scenes), "--out", str(tmp_path / "v.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_vote_failure_is_a_failed_row(self, scenes_dir, tmp_path, monkeypatch, capsys):
        # keypoint 3 of scene 1 fails to vote; every other keypoint is voted
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["vote", "--scenes", scenes_dir, "--out", str(a)]) == 0
        failing_once(monkeypatch, trainer, "vote_keypoint",
                     NoValidHypothesisError("no pair"), at=8 + 3)
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
        pytest.param(cli, "solve_epnp", DegenerateConfigurationError("rank-deficient"), 0,
                     id="pose-error"),
        pytest.param(cli, "solve_epnp", np.linalg.LinAlgError("singular"), 0,
                     id="pose-linalg-error"),
        pytest.param(trainer, "vote_keypoint", NoValidHypothesisError("no pair"), 2,
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


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenDigests:
    """Each command writes the bytes it wrote when its digests were taken,
    vote and eval's before voting was batched over keypoints; a change that
    alters them on purpose updates these."""

    VOTES = "a6726ef50d6a22af38e2d39a4b702eb02572d9abe06391b5684ce81a8b01c2dc"
    RECORDS = "3a6de35394b011b504d146f09325bdcdd1f351bfec7597061f5ed0e7d9a54626"
    SUMMARY = "7362a344eeec352cf31f5b2f43fc40ac4946d3d42e644eeb059fd1787fac8994"
    # eval without --symmetric, taken while every eval still scored ADD-S
    # and took the diameter from scipy's pdist
    PLAIN_RECORDS = "9e848c9bc7be5ac1b118368242dd8da1fd6071decca0c897e8ee728e4b87a68f"
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

    # train's files on the clean 2-scene set, taken before voting's byte
    # workspace was replaced by plain arrays; the manifest is left out
    TRAIN_FILES = {
        "fields/vf_only_seed0/sample_000/fields.npy": "a1158b931f3e97df5208f4a54d3797cb392e41e455b41694ddb7f12589e778b1",
        "fields/vf_only_seed0/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_only_seed0/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_only_seed0/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_only_seed0/sample_001/fields.npy": "62595b42141f9b5d7101f28bf6cf863f58764ee707c2b9e341e1e93964b00db4",
        "fields/vf_only_seed0/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_only_seed0/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_only_seed0/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "fields/vf_only_seed1/sample_000/fields.npy": "14441d9d80e10927cf7c6f7f81c8429588912ecdca3f7aea0e76c404b649c929",
        "fields/vf_only_seed1/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_only_seed1/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_only_seed1/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_only_seed1/sample_001/fields.npy": "1799e2f65dbe25a436b29b5eb0486a3117ddec290e238e585baf5e6d85f8d124",
        "fields/vf_only_seed1/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_only_seed1/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_only_seed1/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "fields/vf_plus_dpvl_seed0/sample_000/fields.npy": "1e4cad0f873163f12a224d6aa2ff0a242319a9b54c70621fa4a5c018cf908d3b",
        "fields/vf_plus_dpvl_seed0/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_plus_dpvl_seed0/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_plus_dpvl_seed0/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_plus_dpvl_seed0/sample_001/fields.npy": "80d578af8736de283b5d6f757bd3c4d71a69c89540a3e56fff80550bc390c570",
        "fields/vf_plus_dpvl_seed0/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_plus_dpvl_seed0/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_plus_dpvl_seed0/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "fields/vf_plus_dpvl_seed1/sample_000/fields.npy": "42a6b005a140d0c1fc8d7896ce4e8ba698c0713ea16709e0ad25284c014d3d73",
        "fields/vf_plus_dpvl_seed1/sample_000/keypoints.csv": "876fb2aa6e722cb34e4f6194b3559fc3bd6ad5420ed1ab8f8a22eb0b46caaaaa",
        "fields/vf_plus_dpvl_seed1/sample_000/mask.pgm": "cc1a05866e93afd64de0bec1d43a67b32aa2b72d9ec956c76c070dd6bda4ecfd",
        "fields/vf_plus_dpvl_seed1/sample_000/pose.json": "83f8425455154730dee06862a13fff22ddf5ab38da36c78d56b1ca5298ac449b",
        "fields/vf_plus_dpvl_seed1/sample_001/fields.npy": "fbbf24ff6bc8f40071daa6ba72e319f94a61c82c43b114b9b183d804f70bf104",
        "fields/vf_plus_dpvl_seed1/sample_001/keypoints.csv": "dec0cb598408edd17f4d87fe7f55e0c5595ad2ec6e58ea665e97e8b868790c79",
        "fields/vf_plus_dpvl_seed1/sample_001/mask.pgm": "0953f97ffa613b60c916bfd6bb089df91b4489abfedb0c16e7c29914381e327f",
        "fields/vf_plus_dpvl_seed1/sample_001/pose.json": "db35ed7f0e00993e6f98e6f3feed1f9526360ab3d6730b7c699014120a74ba19",
        "summary.json": "e900d02a5946f30358105bab927b122460cd332fc3a682e2e52831253b3f29a3",
        "summary_scene000_vf_only_seed0.json": "704d5906030c083ce1466e61602b70ca62c1f538f832961e008c9c614df412b4",
        "summary_scene000_vf_only_seed1.json": "adf68565fcbf49bc32b69cbee829636ddc05ae6490ae74aaa88a50212c3b365d",
        "summary_scene000_vf_plus_dpvl_seed0.json": "d39965ba39fb36ea280a8e4ad4fc86e82a69af484a151248a11d5e010f454a68",
        "summary_scene000_vf_plus_dpvl_seed1.json": "dbf031fbfa2b97aed7ce6390df84a3962e6853c00069d05534aab17564dafa17",
        "summary_scene001_vf_only_seed0.json": "d800430618143643fa4d6505fcb275d3b0f24424dc5bb70f917247f5d786b8e4",
        "summary_scene001_vf_only_seed1.json": "c15d6af28f5ceff4f30a3f4de1009fc7630bccf339ea0efb6a974cdac6555983",
        "summary_scene001_vf_plus_dpvl_seed0.json": "b8e1434906b5e4d8abd69925526ab549cc748068e54de5c43af67b9677056e11",
        "summary_scene001_vf_plus_dpvl_seed1.json": "5d12d13ecf7620cb3823b9049fed7923495903d0977a334f1de732aebe98f5e0",
        "trace_scene000_vf_only_seed0.csv": "6eca3191c9046df37a6c3a8d3b80e145f8b90b5e6dba0a97e2c512034206e550",
        "trace_scene000_vf_only_seed1.csv": "8335a59f3ae2032e34855c48f14c856393e3dc3c9425bb2017230c1d9fd3c5df",
        "trace_scene000_vf_plus_dpvl_seed0.csv": "68d3197e1f3062747810e5143bb7612bebbce941f11e7658f215aa848f66ee48",
        "trace_scene000_vf_plus_dpvl_seed1.csv": "53bf1b0757e7287d0837ea5743d236187202d0a68dade1710fa9dc11df1cc86a",
        "trace_scene001_vf_only_seed0.csv": "e9ca3398bd87d80df145820566c57f1a6f4007c9e43c195eb8c082f9ad124983",
        "trace_scene001_vf_only_seed1.csv": "94f0a2b5f3ef1ce784240448f7f2a2eadb78116a9de4a465468921f55a410928",
        "trace_scene001_vf_plus_dpvl_seed0.csv": "3ec567eaa59ac1c7df435cfc328848f19a1a7dc49451bcd793fde6d17f000738",
        "trace_scene001_vf_plus_dpvl_seed1.csv": "512b1c388de15548ea7af7660cd9eef1dac0768008ef0965613f5afab307a939",
    }

    def test_train_outputs(self, scenes_dir, tmp_path):
        out = tmp_path / "train"
        assert main(["train", "--scenes", scenes_dir, "--out", str(out),
                     "--mode", "vf_only,vf_plus_dpvl", "--seeds", "0,1", "--iters", "30",
                     "--iters-per-epoch", "10"]) == 0
        digests = {p.relative_to(out).as_posix(): sha256(p)
                   for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
        assert digests == self.TRAIN_FILES


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

    def test_report_row_mismatch(self, train_dir, tmp_path):
        short = tmp_path / "trace_scene000_vf_only_seed9.csv"
        src = open(os.path.join(train_dir, "trace_scene000_vf_only_seed0.csv")).read()
        short.write_text("\n".join(src.splitlines()[:50]) + "\n")
        rc = main(["report", "--traces",
                   os.path.join(train_dir, "trace_scene000_vf_only_seed0.csv"),
                   str(short), "--out", str(tmp_path / "r")])
        assert rc == 1

    @pytest.mark.parametrize("damage", ["missing_column", "ragged_row", "short_row",
                                        "non_numeric", "header_only"])
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
        else:
            lines = lines[:1]
        bad = tmp_path / "trace_scene000_vf_only_seed3.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--traces", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert str(bad) in capsys.readouterr().err

    def test_report_reads_a_one_row_trace(self, tmp_path):
        trace = tmp_path / "trace_scene000_vf_only_seed0.csv"
        trace.write_text("iter,l_vf,l_pv,mean_proxy_dist,alpha,beta\n0,1.5,0.25,3.0,1.0,0.001\n")
        out = tmp_path / "r"
        assert main(["report", "--traces", str(trace), "--out", str(out)]) == 0
        assert (out / "curves.csv").read_text() == "iter,scene000_vf_only_seed0_l_pv\n0,0.25\n"
        assert json.loads((out / "report.json").read_text())["vf_only"]["n_traces"] == 1


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


def test_only_eval_loads_scipy(model_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _START_UP, model_file, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert steps == [["import", 0, False], ["gen", 0, False], ["train", 0, False],
                     ["vote", 0, False], ["report", 0, False], ["eval", 0, False],
                     ["eval", 0, True]]


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
