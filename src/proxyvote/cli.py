"""Command-line pipeline: generate scenes, train fields, vote keypoints,
evaluate poses and build ablation reports.

Each subcommand's parser is the one declaration of its settings: a flag
holds its type and default, the latter read from the library dataclass
that declares it where one does. main checks a --config JSON object's
keys and value types against the flags, makes its values the parser's
defaults and parses again, so explicit flags > --config > defaults. A
command's settings, its parser's dests but --config, are the config its
manifest.json records; replaying them through --config reproduces the run.

Exit codes: 0 success, 1 runtime/I/O failure, 2 usage error (a missing
or out-of-range value, such as a negative seed or a --mode list that
names no mode, an unparseable --config file or a --config value of the
wrong type). A keypoint or pose that fails in vote or eval is a
recorded row and a warning, not a failure of the run. A train run that
fails after making --out still writes its manifest, with the outputs
written so far and an "error" key holding the message, and exits 1.
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

from .errors import AlignmentError, ProxyVoteError
from .geometry import Intrinsics
from .metrics import EvalRecord, evaluate
from .model_tools import farthest_point_sampling, load_model, model_diameter
from .pnp import solve_epnp
from .synth import (NoiseSpec, PoseRanges, _fmt, _load_csv, corrupt, load_scene,
                    make_scene, sample_pose, save_scene, write_atomic)
from .trainer import (MODES, TrainConfig, keypoint_errors, run_experiment, subseed,
                      substream, vote_keypoints)
from .voting import VotingConfig


class UsageError(ProxyVoteError):
    pass


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
        if action.type is float and value is not None:
            cfg[key] = float(value)
        elif action.nargs == 0:
            cfg[key] = bool(value)
    return cfg


def _settings(args, *required) -> dict:
    """A command's settings, the values of its parser's dests but --config;
    UsageError unless each of required is set."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    if not all(cfg[k] for k in required):
        raise UsageError(f"{args.command} requires " + ", ".join(f"--{k}" for k in required))
    return cfg


def _write_manifest(out_dir, command, config, seeds, outputs, t0, error=None):
    doc = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": _version(),
        "outputs": sorted(outputs),
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    if error is not None:  # the run failed after writing outputs
        doc["error"] = error
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_seed(seed):
    if seed < 0:
        raise UsageError(f"a seed must be >= 0, got {seed}")


def _parse_seeds(text) -> list[int]:
    try:
        seeds = [int(s) for s in str(text).split(",") if s != ""]
    except ValueError:
        raise UsageError(f"bad seed list: {text!r}")
    if not seeds:
        raise UsageError(f"seed list names no seed: {text!r}")
    for seed in seeds:
        _check_seed(seed)
    return seeds


def _built(cls, **kwargs):
    """cls(**kwargs), with its range checks on the values reported as usage errors."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _scene_dirs(scenes_dir):
    if not os.path.isdir(scenes_dir):
        raise FileNotFoundError(f"scene directory not found: {scenes_dir}")
    dirs = sorted(
        os.path.join(scenes_dir, d)
        for d in os.listdir(scenes_dir)
        if d.startswith("sample_") and os.path.isdir(os.path.join(scenes_dir, d))
    )
    if not dirs:
        raise FileNotFoundError(f"no sample_* directories under {scenes_dir}")
    return dirs


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    t0 = time.monotonic()
    cfg = _settings(args, "model", "out")
    for key in ("n", "keypoints", "width", "height"):
        if cfg[key] < 1:
            raise UsageError(f"--{key} must be at least 1, got {cfg[key]}")
    _check_seed(cfg["seed"])
    if not os.path.exists(cfg["model"]):
        raise FileNotFoundError(f"model file not found: {cfg['model']}")
    if cfg["cx"] is None:
        cfg["cx"] = cfg["width"] / 2.0
    if cfg["cy"] is None:
        cfg["cy"] = cfg["height"] / 2.0
    intr = _built(Intrinsics, fx=cfg["fx"], fy=cfg["fy"], cx=cfg["cx"], cy=cfg["cy"])
    ranges = _built(PoseRanges, z_range=(cfg["z_min"], cfg["z_max"]), margin=cfg["margin"])
    spec = _built(NoiseSpec, angular_sigma=cfg["sigma"], flip_prob=cfg["flip_prob"],
                  occlusion_frac=cfg["occlusion"])
    noisy = cfg["sigma"] > 0 or cfg["flip_prob"] > 0 or cfg["occlusion"] > 0

    width, height = cfg["width"], cfg["height"]
    cloud = load_model(cfg["model"])
    keys = farthest_point_sampling(cloud, cfg["keypoints"])
    # poses are drawn here, in scene order, from one stream, so scene i is
    # the same whatever n; --out is made once every step that can fail on
    # the model or the pose ranges has passed
    scene_rng = substream(cfg["seed"], "scene")
    noise_seed = subseed(cfg["seed"], "noise")
    poses = [sample_pose(scene_rng, ranges, cloud, intr, width, height)
             for _ in range(cfg["n"])]
    os.makedirs(cfg["out"], exist_ok=True)
    outputs = []
    for i, pose in enumerate(poses):
        sample = make_scene(cloud, keys, pose, intr, width, height)
        if noisy:
            sample = corrupt(sample, replace(spec, rng_seed=noise_seed + i))
        outputs.append(os.path.join(cfg["out"], f"sample_{i:03d}"))
        save_scene(outputs[-1], sample)
    _write_manifest(cfg["out"], "gen", cfg, [cfg["seed"]], outputs, t0)
    return 0


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    t0 = time.monotonic()
    cfg = _settings(args, "scenes", "out")
    if cfg["scene_limit"] < 0:
        raise UsageError(f"--scene-limit must be >= 0, got {cfg['scene_limit']}")
    modes = [m for m in str(cfg["mode"]).split(",") if m]
    if not modes:
        raise UsageError(f"mode list names no mode: {cfg['mode']!r}")
    for m in modes:
        if m not in MODES:
            raise UsageError(f"unknown mode {m!r}; expected one of {MODES}")
    seeds = _parse_seeds(cfg["seeds"])
    base = _built(TrainConfig, iterations=cfg["iters"], learning_rate=cfg["lr"],
                  iters_per_epoch=cfg["iters_per_epoch"], lr_decay=cfg["lr_decay"],
                  beta0=cfg["beta0"], beta_cap=cfg["beta_cap"])

    dirs = _scene_dirs(cfg["scenes"])
    if cfg["scene_limit"]:
        dirs = dirs[: cfg["scene_limit"]]
    scenes = [load_scene(d) for d in dirs]

    def written():
        return [os.path.join(cfg["out"], f) for f in os.listdir(cfg["out"])
                if f != "manifest.json"]

    try:
        run_experiment(scenes, modes, seeds, base, cfg["out"])
    except ProxyVoteError as e:
        # the runs before the failed fit stay on disk: record them and why it stopped
        if os.path.isdir(cfg["out"]):
            _write_manifest(cfg["out"], "train", cfg, seeds, written(), t0, error=str(e))
        raise
    _write_manifest(cfg["out"], "train", cfg, seeds, written(), t0)
    return 0


# ---------------------------------------------------------------------------
# vote

def _voting_config(cfg) -> VotingConfig:
    """The VotingConfig of cfg's seed, num_samples and inlier_cos."""
    _check_seed(cfg["seed"])
    return _built(VotingConfig, num_samples=cfg["num_samples"],
                  inlier_cos_threshold=cfg["inlier_cos"],
                  rng_seed=subseed(cfg["seed"], "voting"))


def _voted_scenes(scenes_dir, vcfg):
    """Each scene under scenes_dir, loaded, with its keypoints voted with vcfg
    by ``vote_keypoints``; each failed keypoint is warned about on stderr."""
    for si, d in enumerate(_scene_dirs(scenes_dir)):
        sample = load_scene(d)
        locs, votes, failures = vote_keypoints(sample.gt_fields, sample.mask, vcfg)
        for reason in failures:
            print(f"warning: scene {si}: {reason}", file=sys.stderr)
        yield sample, locs, votes


def cmd_vote(args) -> int:
    t0 = time.monotonic()
    cfg = _settings(args, "scenes", "out")
    vcfg = _voting_config(cfg)
    lines = ["scene,keypoint,kx_voted,ky_voted,kx_true,ky_true,error_px,votes"]
    for si, (sample, locs, votes) in enumerate(_voted_scenes(cfg["scenes"], vcfg)):
        errs = keypoint_errors(locs, sample.keypoints2)
        for ki, (loc, true) in enumerate(zip(locs, sample.keypoints2)):
            lines.append(",".join([str(si), str(ki), _fmt(loc[0]), _fmt(loc[1]),
                                   _fmt(true[0]), _fmt(true[1]), _fmt(errs[ki]),
                                   str(votes[ki])]))
    os.makedirs(os.path.dirname(os.path.abspath(cfg["out"])), exist_ok=True)
    write_atomic(cfg["out"], "\n".join(lines) + "\n")
    _write_manifest(os.path.dirname(os.path.abspath(cfg["out"])), "vote", cfg,
                    [cfg["seed"]], [cfg["out"]], t0)
    return 0


# ---------------------------------------------------------------------------
# eval

# the record of a scene whose keypoints or pose failed: no scores, incorrect
_FAILED = EvalRecord(add=np.nan, add_s=np.nan, proj2d=np.nan, add_correct=False,
                     proj_correct=False, add_s_correct=False)


def cmd_eval(args) -> int:
    t0 = time.monotonic()
    cfg = _settings(args, "scenes", "model", "out")
    vcfg = _voting_config(cfg)
    cloud = load_model(cfg["model"], symmetric=cfg["symmetric"])
    diameter = model_diameter(cloud)

    lines = ["scene,add,proj2d,add_correct,proj_correct"
             + (",add_s,add_s_correct" if cloud.symmetric else "")]
    records = []
    for si, (sample, locs, _) in enumerate(_voted_scenes(cfg["scenes"], vcfg)):
        rec = _FAILED
        if not np.isnan(locs).any():
            try:
                est = solve_epnp(sample.keypoints3, locs, sample.intr)
                rec = evaluate(sample.pose, est, cloud.points, sample.intr, diameter)
            except (ProxyVoteError, np.linalg.LinAlgError) as e:
                print(f"warning: scene {si}: {e}", file=sys.stderr)
        records.append(rec)
        row = [str(si), _fmt(rec.add), _fmt(rec.proj2d),
               str(int(rec.add_correct)), str(int(rec.proj_correct))]
        if cloud.symmetric:
            row += [_fmt(rec.add_s), str(int(rec.add_s_correct))]
        lines.append(",".join(row))

    os.makedirs(cfg["out"], exist_ok=True)
    write_atomic(os.path.join(cfg["out"], "records.csv"), "\n".join(lines) + "\n")
    summary = {
        "scenes": len(records),
        "failed": sum(r is _FAILED for r in records),
        "diameter": diameter,
        "add_accuracy": float(np.mean([r.add_correct for r in records])),
        "proj_accuracy": float(np.mean([r.proj_correct for r in records])),
    }
    if cloud.symmetric:
        summary["add_s_accuracy"] = float(np.mean([r.add_s_correct for r in records]))
    write_atomic(os.path.join(cfg["out"], "summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs = [os.path.join(cfg["out"], f) for f in ("records.csv", "summary.json")]
    _write_manifest(cfg["out"], "eval", cfg, [cfg["seed"]], outputs, t0)
    return 0


# ---------------------------------------------------------------------------
# report

_TRACE_RE = re.compile(r"trace_(scene\d+)_(\w+?)_seed(\d+)\.csv$")

_TRACE_NEEDS = ("iter", "l_pv", "mean_proxy_dist")


def _trace_columns(path) -> dict:
    """The columns of a trace CSV by header name."""
    with open(path) as f:
        names = f.readline().rstrip("\n").split(",")
    missing = [c for c in _TRACE_NEEDS if c not in names]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} column")
    data = _load_csv(path, len(names))
    if not len(data):
        raise ValueError(f"{path}: no rows")
    return {name: data[:, i] for i, name in enumerate(names)}


def cmd_report(args) -> int:
    t0 = time.monotonic()
    cfg = _settings(args, "traces", "out")

    paths = []
    for p in cfg["traces"]:
        if os.path.isdir(p):
            paths.extend(sorted(os.path.join(p, f) for f in os.listdir(p)
                                if _TRACE_RE.search(f)))
        else:
            paths.append(p)
    if not paths:
        raise FileNotFoundError("no trace CSV files found")

    # traces from several directories are labelled by their directory
    # relative to the common parent, so equal file names stay apart
    dirs = [os.path.dirname(os.path.abspath(p)) for p in paths]
    root = os.path.commonpath(dirs)
    traces = {}
    modes = {}
    length = None
    for p, d in zip(paths, dirs):
        m = _TRACE_RE.search(os.path.basename(p))
        name = f"{m.group(1)}_{m.group(2)}_seed{m.group(3)}" if m else os.path.basename(p)
        label = os.path.normpath(os.path.join(os.path.relpath(d, root), name))
        modes[label] = m.group(2) if m else name
        data = _trace_columns(p)
        rows = len(data["iter"])
        if length is None:
            length = rows
        elif rows != length:
            raise AlignmentError(f"trace {p} has {rows} rows, expected {length}")
        traces[label] = data

    os.makedirs(cfg["out"], exist_ok=True)
    labels = sorted(traces)
    lines = ["iter," + ",".join(f"{lab}_l_pv" for lab in labels)]
    iters = traces[labels[0]]["iter"].astype(int)
    for r in range(length):
        lines.append(",".join([str(int(iters[r]))] +
                              [_fmt(traces[lab]["l_pv"][r]) for lab in labels]))
    write_atomic(os.path.join(cfg["out"], "curves.csv"), "\n".join(lines) + "\n")

    # per-mode summary: final values and iterations to the L_pv threshold
    by_mode = {}
    for lab in labels:
        by_mode.setdefault(modes[lab], []).append(traces[lab])
    thr = cfg["lpv_threshold"]
    table = ["mode  n_traces  median_final_l_pv  median_final_proxy  median_iters_to_threshold"]
    report = {}
    for mode in sorted(by_mode):
        ts = by_mode[mode]
        finals = [t["l_pv"][-1] for t in ts]
        proxies = [t["mean_proxy_dist"][-1] for t in ts]
        to_thr = []
        for t in ts:
            hits = np.flatnonzero(t["l_pv"] <= thr)
            to_thr.append(int(t["iter"][hits[0]]) if len(hits) else np.inf)
        med_thr = float(np.median(to_thr))
        table.append(f"{mode}  {len(ts)}  {np.median(finals):.6g}  "
                     f"{np.median(proxies):.6g}  {med_thr:.6g}")
        report[mode] = {
            "n_traces": len(ts),
            "median_final_l_pv": float(np.median(finals)),
            "median_final_mean_proxy_dist": float(np.median(proxies)),
            "median_iters_to_threshold": med_thr,
        }
    write_atomic(os.path.join(cfg["out"], "report.txt"), "\n".join(table) + "\n")
    write_atomic(os.path.join(cfg["out"], "report.json"),
                 json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs = [os.path.join(cfg["out"], f) for f in ("curves.csv", "report.txt", "report.json")]
    _write_manifest(cfg["out"], "report", cfg, [], outputs, t0)
    return 0


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
    g.set_defaults(func=cmd_gen)

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
    t.set_defaults(func=cmd_train)

    v = sub.add_parser("vote", help="vote keypoints from stored scene fields")
    add_common(v)
    v.add_argument("--scenes")
    v.add_argument("--out")
    add_voting(v)
    v.set_defaults(func=cmd_vote)

    e = sub.add_parser("eval", help="vote, solve poses and score them")
    add_common(e)
    e.add_argument("--scenes")
    e.add_argument("--model")
    e.add_argument("--out")
    e.add_argument("--symmetric", action="store_true")
    add_voting(e)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="merge traces into an ablation report")
    add_common(r)
    r.add_argument("--traces", nargs="+")
    r.add_argument("--out")
    r.add_argument("--lpv-threshold", dest="lpv_threshold", type=float, default=1.0,
                   help="l_pv level for iterations-to-threshold; the traced l_pv is a "
                        "raw sum over masked pixels and keypoints, not a per-pixel mean")
    r.set_defaults(func=cmd_report)

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
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ProxyVoteError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
