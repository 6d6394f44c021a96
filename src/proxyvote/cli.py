"""Command-line pipeline: generate scenes, train fields, vote keypoints,
evaluate poses and build ablation reports.

Each subcommand's parser is the one declaration of its settings: a flag
holds its type and default, the latter read from the library dataclass
that declares it where one does. main checks a --config JSON object's
keys and value types against the flags, makes its values the parser's
defaults and parses again, so explicit flags > --config > defaults. A
command's settings, its parser's dests but --config, are the config its
manifest.json records; replaying them through --config reproduces the run.

main runs every command by one protocol. It checks the settings, parses
the seeds (the --seeds list, or --seed) once for the run and its
manifest, and claims the output directory, --out or the directory of
vote's --out file, before the command reads anything. The command adds
each path to its outputs once the path is written; main then writes
the manifest there, also when the run fails with an exit-1 error once
that directory exists: it lists the outputs written so far and holds
the message under an "error" key. A run that fails before writing
anything keeps a manifest already there, an earlier run's.

Exit codes: 0 success, 1 a ProxyVoteError or an OSError, 2 usage error
(a missing or out-of-range value, such as a negative seed, a --mode list
that names no mode, a --mode or --seeds list that names one twice, an
unparseable --config file, a --config value of the wrong type, one past
the largest float or a string holding a NUL, or an output directory
whose manifest.json is not a JSON object naming this command). Any other
exception is a bug and propagates. A usage error writes no manifest. A
keypoint or pose that fails in vote or eval is a recorded row and a
warning, not a failure of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from .errors import ModelLoadError, ProxyVoteError
from .geometry import Intrinsics
from .metrics import EvalRecord, evaluate
from .model_tools import farthest_point_sampling, load_model, model_diameter
from .pnp import solve_epnp
from .synth import (NoiseSpec, PoseRanges, _load_csv, _read_text, corrupt, csv_text,
                    load_scene, make_scene, sample_pose, save_scene, write_atomic, write_json)
from .trainer import (TrainConfig, keypoint_errors, run_experiment, subseed, substream,
                      vote_keypoints)
from .voting import VotingConfig


class UsageError(Exception):
    pass


# the failures of a run that main reports as exit 1; any other is a bug
_RUN_ERRORS = (ProxyVoteError, OSError)


def _version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("proxyvote")
    except PackageNotFoundError:  # running from a source tree
        return "unknown"


def _value_types(action) -> tuple:
    """The JSON types a --config value may take for action's flag: what the
    flag parses to, and int also where a float or a switch is."""
    if action.nargs == 0:  # a switch
        return (bool, int)
    if action.nargs == "+":
        return (list,)
    if action.type is float:
        return (int, float)
    if action.type is int:
        return (int,)
    if action.dest == "seeds":  # an integer seed list is one seed
        return (str, int)
    return (str,)


def _config_defaults(path, parser) -> dict:
    """The settings of the JSON object in path, checked against parser's
    flags, with the values of float flags made floats and of switches bools."""
    with open(path) as f:
        try:
            cfg = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise UsageError(f"{path}: {e}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: a config file holds one JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        action, types = actions[key], _value_types(actions[key])
        if value is None:  # null only where the default is
            ok = action.default is None
        elif isinstance(value, list):
            ok = list in types and all(isinstance(v, str) for v in value)
        else:
            ok = isinstance(value, types) and (bool in types or not isinstance(value, bool))
        if not ok:
            names = " or ".join("list of str" if t is list else t.__name__ for t in types)
            raise UsageError(f"config key {key!r} must be {names}, got {value!r}")
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, str) and "\0" in v for v in items):  # no path holds one
            raise UsageError(f"config key {key!r} holds a NUL character")
        if action.type is float and value is not None:
            try:
                cfg[key] = float(value)
            except OverflowError:  # an integer past the largest float
                raise UsageError(f"config key {key!r} is too large for a float") from None
        elif action.nargs == 0:
            cfg[key] = bool(value)
    return cfg


def _settings(args) -> dict:
    """A command's settings, the values of its parser's dests but --config;
    UsageError unless each flag its parser needs is set."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "func", "needs", "config")}
    if not all(cfg[k] for k in args.needs):
        raise UsageError(f"{args.command} requires " + ", ".join(f"--{k}" for k in args.needs))
    return cfg


def _claim(command, out) -> str:
    """The directory of a run's manifest: out, or for vote the directory of
    its --out file. UsageError if a manifest.json there is not command's."""
    out_dir = os.path.dirname(os.path.abspath(out)) if command == "vote" else out
    manifest = os.path.join(out_dir, "manifest.json")
    if os.path.isfile(manifest):  # this run's manifest would replace it
        try:
            with open(manifest) as f:
                doc = json.load(f)
        except ValueError:  # not JSON, or not UTF-8
            doc = None
        if not isinstance(doc, dict) or doc.get("command") != command:
            raise UsageError(f"{manifest} is not a {command} manifest; write --out to a "
                             "directory of its own")
    return out_dir


def _output(outputs, write, path, data):
    """write(path, data), then path added to outputs."""
    write(path, data)
    outputs.append(path)


def _write_manifest(out_dir, command, config, seeds, outputs, t0, error=None):
    doc = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": _version(),
        "outputs": sorted(outputs),
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    if error is not None:  # the run failed after making its output directory
        doc["error"] = error
    write_json(os.path.join(out_dir, "manifest.json"), doc)


def _parse_list(text, what, item) -> list:
    """The items of comma-separated text, each parsed by item: at least one, no repeat."""
    values = [item(s) for s in str(text).split(",") if s != ""]
    if not values:
        raise UsageError(f"{what} list names no {what}: {text!r}")
    if len(set(values)) < len(values):
        raise UsageError(f"{what} list repeats a {what}: {text!r}")
    return values


def _parse_seeds(text) -> list[int]:
    """The seeds of a comma-separated list, or of one integer seed, each >= 0."""
    try:
        seeds = _parse_list(text, "seed", int)
    except ValueError:
        raise UsageError(f"bad seed list: {text!r}")
    for seed in seeds:
        if seed < 0:
            raise UsageError(f"a seed must be >= 0, got {seed}")
    return seeds


def _built(cls, **kwargs):
    """cls(**kwargs), with its range checks on the values reported as usage errors."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _scene_order(name):
    """Sort key of a sample_* name: by its integer suffix, so that gen's
    sample_999 comes before sample_1000; other names follow, by name."""
    suffix = name[len("sample_"):]
    return (0, int(suffix), name) if suffix.isdecimal() else (1, 0, name)


def _scene_dirs(scenes_dir):
    if not os.path.isdir(scenes_dir):
        raise FileNotFoundError(f"scene directory not found: {scenes_dir}")
    names = sorted(
        (d for d in os.listdir(scenes_dir)
         if d.startswith("sample_") and os.path.isdir(os.path.join(scenes_dir, d))),
        key=_scene_order,
    )
    dirs = [os.path.join(scenes_dir, d) for d in names]
    if not dirs:
        raise FileNotFoundError(f"no sample_* directories under {scenes_dir}")
    return dirs


# ---------------------------------------------------------------------------
# gen

_GEN_MAX = {"n": 100_000, "width": 2048, "height": 2048}  # 2,048 px > LINEMOD's 640 x 480


def cmd_gen(cfg, seeds, outputs):
    for key in ("n", "keypoints", "width", "height"):
        if cfg[key] < 1:
            raise UsageError(f"--{key} must be at least 1, got {cfg[key]}")
        if cfg[key] > _GEN_MAX.get(key, cfg[key]):
            raise UsageError(f"--{key} must be at most {_GEN_MAX[key]}, got {cfg[key]}")
    if cfg["cx"] is None:
        cfg["cx"] = cfg["width"] / 2.0
    if cfg["cy"] is None:
        cfg["cy"] = cfg["height"] / 2.0
    intr = _built(Intrinsics, fx=cfg["fx"], fy=cfg["fy"], cx=cfg["cx"], cy=cfg["cy"])
    ranges = _built(PoseRanges, z_range=(cfg["z_min"], cfg["z_max"]), margin=cfg["margin"])
    spec = _built(NoiseSpec, angular_sigma=cfg["sigma"], flip_prob=cfg["flip_prob"],
                  occlusion_frac=cfg["occlusion"])

    width, height = cfg["width"], cfg["height"]
    cloud = load_model(cfg["model"])
    keypoints3 = cloud.points[farthest_point_sampling(cloud, cfg["keypoints"])]
    # poses are drawn here, in scene order, from one stream, so scene i is
    # the same whatever n; --out is made once every step that can fail on
    # the model or the pose ranges has passed
    scene_rng = substream(seeds[0], "scene")
    noise_seed = subseed(seeds[0], "noise")
    poses = [sample_pose(scene_rng, ranges, cloud, intr, width, height)
             for _ in range(cfg["n"])]
    os.makedirs(cfg["out"], exist_ok=True)
    for i, pose in enumerate(poses):
        sample = corrupt(make_scene(cloud, keypoints3, pose, intr, width, height),
                         replace(spec, rng_seed=noise_seed + i))
        _output(outputs, save_scene, os.path.join(cfg["out"], f"sample_{i:03d}"), sample)


# ---------------------------------------------------------------------------
# train

def cmd_train(cfg, seeds, outputs):
    if cfg["scene_limit"] < 0:
        raise UsageError(f"--scene-limit must be >= 0, got {cfg['scene_limit']}")
    modes = _parse_list(cfg["mode"], "mode", lambda m: _built(TrainConfig, mode=m).mode)
    base = _built(TrainConfig, iterations=cfg["iters"], learning_rate=cfg["lr"],
                  iters_per_epoch=cfg["iters_per_epoch"], lr_decay=cfg["lr_decay"],
                  beta0=cfg["beta0"], beta_cap=cfg["beta_cap"])

    dirs = _scene_dirs(cfg["scenes"])
    if cfg["scene_limit"]:
        dirs = dirs[: cfg["scene_limit"]]
    scenes = [load_scene(d) for d in dirs]
    run_experiment(scenes, modes, seeds, base, cfg["out"], outputs)


# ---------------------------------------------------------------------------
# vote

def _voting_config(cfg, seed) -> VotingConfig:
    """The VotingConfig of seed and cfg's num_samples and inlier_cos."""
    return _built(VotingConfig, num_samples=cfg["num_samples"],
                  inlier_cos_threshold=cfg["inlier_cos"], rng_seed=subseed(seed, "voting"))


def _voted_scenes(scenes_dir, vcfg):
    """Each scene under scenes_dir, loaded, with its keypoints voted with vcfg
    by ``vote_keypoints``; each failed keypoint is warned about on stderr."""
    for si, d in enumerate(_scene_dirs(scenes_dir)):
        sample = load_scene(d)
        locs, votes, failures = vote_keypoints(sample.fields, sample.mask, vcfg)
        for reason in failures:
            print(f"warning: scene {si}: {reason}", file=sys.stderr)
        yield sample, locs, votes


def cmd_vote(cfg, seeds, outputs):
    vcfg = _voting_config(cfg, seeds[0])
    scenes = []  # each scene's columns
    for si, (sample, locs, votes) in enumerate(_voted_scenes(cfg["scenes"], vcfg)):
        k = len(locs)
        scenes.append((np.full(k, si), np.arange(k), *locs.T, *sample.keypoints2.T,
                       keypoint_errors(locs, sample.keypoints2), votes))
    os.makedirs(os.path.dirname(os.path.abspath(cfg["out"])), exist_ok=True)
    _output(outputs, write_atomic, cfg["out"], csv_text(
        "scene keypoint kx_voted ky_voted kx_true ky_true error_px votes".split(),
        map(np.concatenate, zip(*scenes))))


# ---------------------------------------------------------------------------
# eval

# the record of a scene whose keypoints or pose failed: no scores, incorrect
_FAILED = EvalRecord(add=np.nan, add_s=np.nan, proj2d=np.nan, add_correct=False,
                     proj_correct=False, add_s_correct=False)


def cmd_eval(cfg, seeds, outputs):
    vcfg = _voting_config(cfg, seeds[0])
    cloud = load_model(cfg["model"], symmetric=cfg["symmetric"])
    diameter = model_diameter(cloud)

    records = []
    for si, (sample, locs, _) in enumerate(_voted_scenes(cfg["scenes"], vcfg)):
        rec = _FAILED
        if not np.isnan(locs).any():
            try:
                est = solve_epnp(sample.keypoints3, locs, sample.intr)
                rec = evaluate(sample.pose, est, cloud, sample.intr, diameter)
            except (ProxyVoteError, np.linalg.LinAlgError) as e:
                print(f"warning: scene {si}: {e}", file=sys.stderr)
        records.append(rec)

    names = ["add", "proj2d", "add_correct", "proj_correct"]
    if cloud.symmetric:
        names += ["add_s", "add_s_correct"]
    columns = {n: [getattr(r, n) for r in records] for n in names}
    os.makedirs(cfg["out"], exist_ok=True)
    _output(outputs, write_atomic, os.path.join(cfg["out"], "records.csv"), csv_text(
        ["scene", *columns], [np.arange(len(records)), *columns.values()]))
    summary = {"scenes": len(records), "failed": sum(r is _FAILED for r in records),
               "diameter": diameter}
    # an accuracy per flag column: add, proj, and add_s for a symmetric model
    summary.update((n.removesuffix("_correct") + "_accuracy", float(np.mean(c)))
                   for n, c in columns.items() if n.endswith("_correct"))
    _output(outputs, write_json, os.path.join(cfg["out"], "summary.json"), summary)


# ---------------------------------------------------------------------------
# report

# a trace file name as train writes it; its groups are the label and the mode
_TRACE_RE = re.compile(r"trace_(scene\d+_(\w+?)_seed\d+)\.csv")

_TRACE_NEEDS = ("iter", "l_pv", "mean_proxy_dist")


def _trace_columns(path) -> dict:
    """The columns of a trace CSV by header name."""
    names = _read_text(path).partition("\n")[0].split(",")
    missing = [c for c in _TRACE_NEEDS if c not in names]
    if missing:
        raise ModelLoadError(f"{path}: no {', '.join(missing)} column")
    data = _load_csv(path, len(names))
    if not len(data):
        raise ModelLoadError(f"{path}: no rows")
    return {name: data[:, i] for i, name in enumerate(names)}


def cmd_report(cfg, seeds, outputs):
    thr = cfg["lpv_threshold"]
    if not thr >= 0:  # NaN, or a distance no trace can reach
        raise UsageError(f"--lpv-threshold must be >= 0, got {thr}")

    found = []  # (path, match of its file name) per trace
    for p in cfg["traces"]:
        if os.path.isdir(p):
            found += [(os.path.join(p, f), m) for f in sorted(os.listdir(p))
                      if (m := _TRACE_RE.fullmatch(f))]
        elif m := _TRACE_RE.fullmatch(os.path.basename(p)):
            found.append((p, m))
        else:  # the mode comes from the name
            raise ModelLoadError(f"{p}: not a trace name that train writes, "
                                 "trace_scene###_<mode>_seed<seed>.csv")
    if not found:
        raise FileNotFoundError("no trace CSV files found")

    # traces from several directories are labelled by their directory
    # relative to the common parent, so equal file names stay apart
    dirs = [os.path.dirname(os.path.abspath(p)) for p, _ in found]
    root = os.path.commonpath(dirs)
    traces = {}
    modes = {}
    length = None
    for (p, m), d in zip(found, dirs):
        name, mode = m.groups()
        label = os.path.normpath(os.path.join(os.path.relpath(d, root), name))
        modes[label] = mode
        data = _trace_columns(p)
        rows = len(data["iter"])
        if length is None:
            length = rows
        elif rows != length:
            raise ModelLoadError(f"trace {p} has {rows} rows, expected {length}")
        traces[label] = data

    os.makedirs(cfg["out"], exist_ok=True)
    labels = sorted(traces)
    _output(outputs, write_atomic, os.path.join(cfg["out"], "curves.csv"), csv_text(
        ["iter", *(f"{lab}_l_pv" for lab in labels)],
        [traces[labels[0]]["iter"].astype(int), *(traces[lab]["l_pv"] for lab in labels)]))

    # per-mode summary: final values and iterations until the mean proxy
    # distance reaches the threshold
    by_mode = {}
    for lab in labels:
        by_mode.setdefault(modes[lab], []).append(traces[lab])
    table = ["mode  n_traces  median_final_l_pv  median_final_proxy  median_iters_to_threshold"]
    report = {}
    for mode in sorted(by_mode):
        ts = by_mode[mode]
        hits = [np.flatnonzero(t["mean_proxy_dist"] <= thr) for t in ts]
        to_thr = [t["iter"][h[0]] if len(h) else np.inf for t, h in zip(ts, hits)]
        r = report[mode] = {
            "n_traces": len(ts),
            "median_final_l_pv": float(np.median([t["l_pv"][-1] for t in ts])),
            "median_final_mean_proxy_dist": float(np.median([t["mean_proxy_dist"][-1]
                                                             for t in ts])),
            "median_iters_to_threshold": float(np.median(to_thr)),
        }
        table.append(f"{mode}  {r['n_traces']}  {r['median_final_l_pv']:.6g}  "
                     f"{r['median_final_mean_proxy_dist']:.6g}  "
                     f"{r['median_iters_to_threshold']:.6g}")
    _output(outputs, write_atomic, os.path.join(cfg["out"], "report.txt"),
            "\n".join(table) + "\n")
    _output(outputs, write_json, os.path.join(cfg["out"], "report.json"), report)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxyvote",
                                     description="Vector-field pose pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with default overrides")

    def add_voting(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--num-samples", dest="num_samples", type=int,
                       default=VotingConfig.num_samples)
        p.add_argument("--inlier-cos", dest="inlier_cos", type=float,
                       default=VotingConfig.inlier_cos_threshold)

    g = sub.add_parser("gen", help="generate synthetic scenes")
    add_common(g)
    g.add_argument("--model")
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--fx", type=float, default=80.0)
    g.add_argument("--fy", type=float, default=80.0)
    g.add_argument("--cx", type=float, help="default: width / 2")
    g.add_argument("--cy", type=float, help="default: height / 2")
    g.add_argument("--keypoints", type=int, default=8)
    g.add_argument("--sigma", type=float, default=NoiseSpec.angular_sigma,
                   help="angular noise, degrees")
    g.add_argument("--flip-prob", dest="flip_prob", type=float, default=NoiseSpec.flip_prob)
    g.add_argument("--occlusion", type=float, default=NoiseSpec.occlusion_frac)
    g.add_argument("--z-min", dest="z_min", type=float, default=PoseRanges.z_range[0])
    g.add_argument("--z-max", dest="z_max", type=float, default=PoseRanges.z_range[1])
    g.add_argument("--margin", type=float, default=PoseRanges.margin)
    g.set_defaults(func=cmd_gen, needs=("model", "out"))

    t = sub.add_parser("train", help="fit vector fields to scenes")
    add_common(t)
    t.add_argument("--scenes")
    t.add_argument("--out")
    t.add_argument("--mode", "--modes", dest="mode", default=TrainConfig.mode,
                   help="comma-separated: vf_only,vf_plus_dpvl,dpvl_only")
    t.add_argument("--seeds", "--seed", dest="seeds", default="0", help="comma-separated seeds")
    t.add_argument("--iters", type=int, default=TrainConfig.iterations)
    t.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    t.add_argument("--iters-per-epoch", dest="iters_per_epoch", type=int,
                   default=TrainConfig.iters_per_epoch)
    t.add_argument("--no-lr-decay", dest="lr_decay", action="store_false",
                   default=TrainConfig.lr_decay)
    t.add_argument("--beta0", type=float, default=TrainConfig.beta0)
    t.add_argument("--beta-cap", dest="beta_cap", type=float, default=TrainConfig.beta_cap)
    t.add_argument("--scene-limit", dest="scene_limit", type=int, default=0, help="0 = all")
    t.set_defaults(func=cmd_train, needs=("scenes", "out"))

    v = sub.add_parser("vote", help="vote keypoints from stored scene fields")
    add_common(v)
    v.add_argument("--scenes")
    v.add_argument("--out")
    add_voting(v)
    v.set_defaults(func=cmd_vote, needs=("scenes", "out"))

    e = sub.add_parser("eval", help="vote, solve poses and score them")
    add_common(e)
    e.add_argument("--scenes")
    e.add_argument("--model")
    e.add_argument("--out")
    e.add_argument("--symmetric", action="store_true")
    add_voting(e)
    e.set_defaults(func=cmd_eval, needs=("scenes", "model", "out"))

    r = sub.add_parser("report", help="merge traces into an ablation report")
    add_common(r)
    r.add_argument("--traces", nargs="+")
    r.add_argument("--out")
    r.add_argument("--lpv-threshold", dest="lpv_threshold", type=float, default=1.0,
                   help="mean proxy distance, px, for iterations-to-threshold: the first "
                        "iteration whose traced mean_proxy_dist is at or below it")
    r.set_defaults(func=cmd_report, needs=("traces", "out"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        if args.config:
            sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
            sub.set_defaults(**_config_defaults(args.config, sub))
            args = parser.parse_args(argv)
        cfg = _settings(args)
        seed_key = next((k for k in ("seeds", "seed") if k in cfg), None)
        seeds = _parse_seeds(cfg[seed_key]) if seed_key else []
        out_dir = _claim(args.command, cfg["out"])
        t0, outputs = time.monotonic(), []
        try:
            args.func(cfg, seeds, outputs)
        except _RUN_ERRORS as e:
            # what the run wrote before it failed stays on disk: record it and
            # why, but keep an earlier run's manifest where this one wrote nothing
            manifest = os.path.join(out_dir, "manifest.json")
            if outputs or (os.path.isdir(out_dir) and not os.path.exists(manifest)):
                _write_manifest(out_dir, args.command, cfg, seeds, outputs, t0, error=str(e))
            raise
        _write_manifest(out_dir, args.command, cfg, seeds, outputs, t0)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
