import importlib.metadata
import json
import os

import pytest

from proxyvote import cli
from proxyvote.cli import _parse_seeds, _resolve, main

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


class TestResolve:
    class Args:
        def __init__(self, **kw):
            self.__dict__.update(kw)

    def test_precedence(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"a": 2, "b": 20}))
        out = _resolve(self.Args(a=1, b=None, c=None),
                       {"a": 0, "b": 0, "c": 30}, str(cfg))
        assert out == {"a": 1, "b": 20, "c": 30}

    def test_unknown_config_key(self, tmp_path):
        from proxyvote.cli import UsageError

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(UsageError):
            _resolve(self.Args(), {"a": 0}, str(cfg))


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
            files = os.listdir(os.path.join(scenes_dir, d))
            assert "mask.pgm" in files and "pose.json" in files
            assert "keypoints.csv" in files and "field_00.csv" in files

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

    def test_worker_count_does_not_change_output(self, tmp_path, model_file, monkeypatch):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argbase = ["gen", "--model", model_file, "--n", "3", "--seed", "2",
                   "--z-min", "0.45", "--z-max", "0.7"]
        monkeypatch.setenv("PROXY_VOTE_THREADS", "1")
        assert main(argbase + ["--out", a]) == 0
        monkeypatch.setenv("PROXY_VOTE_THREADS", "3")
        assert main(argbase + ["--out", b]) == 0
        for i in range(3):
            d = f"sample_{i:03d}"
            for f in sorted(os.listdir(os.path.join(a, d))):
                assert open(os.path.join(a, d, f), "rb").read() == \
                    open(os.path.join(b, d, f), "rb").read()

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_is_usage_error(self, tmp_path, model_file, monkeypatch,
                                             capsys, value):
        import proxyvote.cli as cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("PROXY_VOTE_THREADS", value)
        out = tmp_path / "x"
        assert main(["gen", "--model", model_file, "--out", str(out), "--n", "2"]) == 2
        assert "PROXY_VOTE_THREADS" in capsys.readouterr().err
        assert not out.exists()

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
        monkeypatch.delenv("PROXY_VOTE_THREADS", raising=False)
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

    def test_missing_model_is_usage_error(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x")]) == 2

    def test_nonexistent_model_file(self, tmp_path):
        assert main(["gen", "--model", str(tmp_path / "no.ply"),
                     "--out", str(tmp_path / "x")]) == 1


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

    def test_missing_scenes_dir(self, tmp_path):
        assert main(["vote", "--scenes", str(tmp_path / "none"),
                     "--out", str(tmp_path / "v.csv")]) == 1


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

    def test_symmetric_adds_columns(self, scenes_dir, model_file, tmp_path):
        out = str(tmp_path / "eval_s")
        assert main(["eval", "--scenes", scenes_dir, "--model", model_file,
                     "--out", out, "--symmetric"]) == 0
        lines = open(os.path.join(out, "records.csv")).read().splitlines()
        assert lines[0].endswith(",add_s,add_s_correct")
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert "add_s_accuracy" in summary


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

    def test_bad_mode_is_usage_error(self, scenes_dir, tmp_path):
        assert main(["train", "--scenes", scenes_dir,
                     "--out", str(tmp_path / "t"), "--mode", "bogus"]) == 2

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
