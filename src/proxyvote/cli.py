"""Command-line pipeline: generate scenes, train fields, vote keypoints,
evaluate poses and build ablation reports.

Exit codes: 0 success, 1 runtime/I/O failure, 2 usage error. Every
command writes a manifest.json with its resolved configuration so runs
can be reproduced bit-for-bit. Flag precedence: explicit flags >
--config JSON > built-in defaults. PROXY_VOTE_THREADS, a positive
integer (default 1), caps the worker pool used for scene generation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import AlignmentError, ProxyVoteError
from .geometry import Intrinsics
from .losses import WeightSchedule
from .metrics import evaluate
from .model_tools import farthest_point_sampling, load_model, model_diameter
from .pnp import solve_epnp
from .synth import (NoiseSpec, PoseRanges, _fmt, corrupt, load_scene,
                    make_scene, sample_pose, save_scene, write_atomic)
from .trainer import MODES, TrainConfig, run_experiment, substream
from .voting import VotingConfig, vote_keypoint


class UsageError(ProxyVoteError):
    pass


def _version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("proxyvote")
    except PackageNotFoundError:  # running from a source tree
        return "unknown"


def _max_workers() -> int:
    text = os.environ.get("PROXY_VOTE_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"PROXY_VOTE_THREADS must be a positive integer, got {text!r}")
    return workers


def _resolve(args, defaults, config_path):
    """Apply flag > config-file > default precedence over a defaults dict."""
    cfg = {}
    if config_path:
        with open(config_path) as f:
            cfg = json.load(f)
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, dflt in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = dflt
    return out


def _write_manifest(out_dir, command, config, seeds, outputs, t0):
    doc = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": _version(),
        "outputs": sorted(outputs),
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_seeds(text) -> list[int]:
    try:
        return [int(s) for s in str(text).split(",") if s != ""]
    except ValueError:
        raise UsageError(f"bad seed list: {text!r}")


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

GEN_DEFAULTS = {
    "model": None,
    "n": 1,
    "seed": 0,
    "out": None,
    "width": 64,
    "height": 64,
    "fx": 80.0,
    "fy": 80.0,
    "cx": None,  # defaults to width / 2
    "cy": None,
    "keypoints": 8,
    "sigma": 0.0,
    "flip_prob": 0.0,
    "occlusion": 0.0,
    "z_min": 0.5,
    "z_max": 2.0,
    "margin": 4.0,
}


def _gen_one(task):
    """Build, corrupt and save one scene from the pose drawn for it in cmd_gen."""
    cloud, keys, pose, intr, width, height, noise, directory = task
    sample = make_scene(cloud, keys, pose, intr, width, height)
    if noise is not None:
        sample = corrupt(sample, noise)
    save_scene(directory, sample)
    return directory


def cmd_gen(args) -> int:
    t0 = time.monotonic()
    cfg = _resolve(args, GEN_DEFAULTS, args.config)
    if not cfg["model"] or not cfg["out"]:
        raise UsageError("gen requires --model and --out")
    if not os.path.exists(cfg["model"]):
        raise FileNotFoundError(f"model file not found: {cfg['model']}")
    if cfg["cx"] is None:
        cfg["cx"] = cfg["width"] / 2.0
    if cfg["cy"] is None:
        cfg["cy"] = cfg["height"] / 2.0
    max_workers = _max_workers()

    os.makedirs(cfg["out"], exist_ok=True)
    width, height = cfg["width"], cfg["height"]
    cloud = load_model(cfg["model"])
    keys = farthest_point_sampling(cloud, cfg["keypoints"])
    intr = Intrinsics(cfg["fx"], cfg["fy"], cfg["cx"], cfg["cy"])
    # poses are drawn here, in scene order, from one stream, so scene i is
    # the same whatever n or the worker count
    scene_rng = substream(cfg["seed"], "scene")
    ranges = PoseRanges(z_range=(cfg["z_min"], cfg["z_max"]), margin=cfg["margin"])
    noisy = cfg["sigma"] > 0 or cfg["flip_prob"] > 0 or cfg["occlusion"] > 0
    noise_seed = int(substream(cfg["seed"], "noise").integers(2 ** 63))
    tasks = []
    for i in range(cfg["n"]):
        pose = sample_pose(scene_rng, ranges, cloud, intr, width, height)
        noise = NoiseSpec(angular_sigma=cfg["sigma"], flip_prob=cfg["flip_prob"],
                          occlusion_frac=cfg["occlusion"],
                          rng_seed=noise_seed + i) if noisy else None
        tasks.append((cloud, keys, pose, intr, width, height, noise,
                      os.path.join(cfg["out"], f"sample_{i:03d}")))
    workers = min(max_workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_gen_one, tasks))
    else:
        outputs = [_gen_one(t) for t in tasks]
    _write_manifest(cfg["out"], "gen", cfg, [cfg["seed"]], outputs, t0)
    return 0


# ---------------------------------------------------------------------------
# train

TRAIN_DEFAULTS = {
    "scenes": None,
    "out": None,
    "mode": "vf_plus_dpvl",
    "seeds": "0",
    "iters": 2000,
    "lr": 1e-3,
    "iters_per_epoch": 100,
    "lr_decay": True,
    "beta0": 1e-3,
    "beta_cap": 1e-2,
    "scene_limit": 0,  # 0 = all
}


def cmd_train(args) -> int:
    t0 = time.monotonic()
    cfg = _resolve(args, TRAIN_DEFAULTS, args.config)
    if not cfg["scenes"] or not cfg["out"]:
        raise UsageError("train requires --scenes and --out")
    modes = [m for m in str(cfg["mode"]).split(",") if m]
    for m in modes:
        if m not in MODES:
            raise UsageError(f"unknown mode {m!r}; expected one of {MODES}")
    seeds = _parse_seeds(cfg["seeds"])

    dirs = _scene_dirs(cfg["scenes"])
    if cfg["scene_limit"]:
        dirs = dirs[: cfg["scene_limit"]]
    scenes = [load_scene(d) for d in dirs]

    sched = WeightSchedule(beta0=cfg["beta0"], beta_cap=cfg["beta_cap"])
    base = TrainConfig(iterations=cfg["iters"], learning_rate=cfg["lr"],
                       iters_per_epoch=cfg["iters_per_epoch"],
                       lr_decay=bool(cfg["lr_decay"]), schedule=sched)
    os.makedirs(cfg["out"], exist_ok=True)
    run_experiment(scenes, modes, seeds, base, cfg["out"])
    outputs = [os.path.join(cfg["out"], f) for f in os.listdir(cfg["out"])
               if f != "manifest.json"]
    _write_manifest(cfg["out"], "train", cfg, seeds, outputs, t0)
    return 0


# ---------------------------------------------------------------------------
# vote

VOTE_DEFAULTS = {
    "scenes": None,
    "out": None,
    "seed": 0,
    "num_samples": 512,
    "inlier_cos": 0.99,
}


def cmd_vote(args) -> int:
    t0 = time.monotonic()
    cfg = _resolve(args, VOTE_DEFAULTS, args.config)
    if not cfg["scenes"] or not cfg["out"]:
        raise UsageError("vote requires --scenes and --out")
    dirs = _scene_dirs(cfg["scenes"])
    vote_seed = int(substream(cfg["seed"], "voting").integers(2 ** 63))
    vcfg = VotingConfig(num_samples=cfg["num_samples"],
                        inlier_cos_threshold=cfg["inlier_cos"], rng_seed=vote_seed)
    lines = ["scene,keypoint,kx_voted,ky_voted,kx_true,ky_true,error_px,votes"]
    for si, d in enumerate(dirs):
        sample = load_scene(d)
        for ki in range(len(sample.gt_fields)):
            loc, votes = vote_keypoint(sample.gt_fields[ki], sample.mask, vcfg)
            err = float(np.linalg.norm(loc - sample.keypoints2[ki]))
            lines.append(",".join([str(si), str(ki), _fmt(loc[0]), _fmt(loc[1]),
                                   _fmt(sample.keypoints2[ki][0]),
                                   _fmt(sample.keypoints2[ki][1]),
                                   _fmt(err), str(votes)]))
    os.makedirs(os.path.dirname(os.path.abspath(cfg["out"])), exist_ok=True)
    write_atomic(cfg["out"], "\n".join(lines) + "\n")
    _write_manifest(os.path.dirname(os.path.abspath(cfg["out"])), "vote", cfg,
                    [cfg["seed"]], [cfg["out"]], t0)
    return 0


# ---------------------------------------------------------------------------
# eval

EVAL_DEFAULTS = {
    "scenes": None,
    "model": None,
    "out": None,
    "seed": 0,
    "symmetric": False,
    "num_samples": 512,
    "inlier_cos": 0.99,
}


def cmd_eval(args) -> int:
    t0 = time.monotonic()
    cfg = _resolve(args, EVAL_DEFAULTS, args.config)
    if not cfg["scenes"] or not cfg["model"] or not cfg["out"]:
        raise UsageError("eval requires --scenes, --model and --out")
    cloud = load_model(cfg["model"], symmetric=bool(cfg["symmetric"]))
    diameter = model_diameter(cloud)
    dirs = _scene_dirs(cfg["scenes"])
    vote_seed = int(substream(cfg["seed"], "voting").integers(2 ** 63))
    vcfg = VotingConfig(num_samples=cfg["num_samples"],
                        inlier_cos_threshold=cfg["inlier_cos"], rng_seed=vote_seed)

    header = "scene,add,proj2d,add_correct,proj_correct"
    if cloud.symmetric:
        header += ",add_s,add_s_correct"
    lines = [header]
    records = []
    for si, d in enumerate(dirs):
        sample = load_scene(d)
        voted = []
        for ki in range(len(sample.gt_fields)):
            loc, _ = vote_keypoint(sample.gt_fields[ki], sample.mask, vcfg)
            voted.append(loc)
        est = solve_epnp(sample.keypoints3, np.asarray(voted), sample.intr)
        rec = evaluate(sample.pose, est, cloud.points, sample.intr, diameter)
        records.append(rec)
        row = [str(si), _fmt(rec.add), _fmt(rec.proj2d),
               str(int(rec.add_correct)), str(int(rec.proj_correct))]
        if cloud.symmetric:
            row += [_fmt(rec.add_s), str(int(rec.add_s < 0.1 * diameter))]
        lines.append(",".join(row))

    os.makedirs(cfg["out"], exist_ok=True)
    write_atomic(os.path.join(cfg["out"], "records.csv"), "\n".join(lines) + "\n")
    summary = {
        "scenes": len(records),
        "diameter": diameter,
        "add_accuracy": float(np.mean([r.add_correct for r in records])),
        "proj_accuracy": float(np.mean([r.proj_correct for r in records])),
    }
    if cloud.symmetric:
        summary["add_s_accuracy"] = float(
            np.mean([r.add_s < 0.1 * diameter for r in records]))
    write_atomic(os.path.join(cfg["out"], "summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs = [os.path.join(cfg["out"], "records.csv"),
               os.path.join(cfg["out"], "summary.json")]
    _write_manifest(cfg["out"], "eval", cfg, [cfg["seed"]], outputs, t0)
    return 0


# ---------------------------------------------------------------------------
# report

REPORT_DEFAULTS = {
    "out": None,
    "traces": None,
    "lpv_threshold": 1.0,
}

_TRACE_RE = re.compile(r"trace_(scene\d+)_(\w+?)_seed(\d+)\.csv$")


_TRACE_NEEDS = ("iter", "l_pv", "mean_proxy_dist")


def _trace_columns(path) -> dict:
    """The columns of a trace CSV by header name: one read, one parse."""
    with open(path) as f:
        lines = f.read().splitlines()
    names = lines[0].split(",") if lines else []
    missing = [c for c in _TRACE_NEEDS if c not in names]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} column")
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: no rows")
    for lineno, row in enumerate(rows, 2):
        if row.count(",") != len(names) - 1:
            raise ValueError(f"{path}: line {lineno}: expected {len(names)} columns")
    try:
        data = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), -1)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return {name: data[:, i] for i, name in enumerate(names)}


def cmd_report(args) -> int:
    t0 = time.monotonic()
    cfg = _resolve(args, REPORT_DEFAULTS, args.config)
    if not cfg["out"] or not cfg["traces"]:
        raise UsageError("report requires --out and at least one trace path")

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

    g = sub.add_parser("gen", help="generate synthetic scenes")
    add_common(g)
    g.add_argument("--model")
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--out")
    g.add_argument("--width", type=int)
    g.add_argument("--height", type=int)
    g.add_argument("--fx", type=float)
    g.add_argument("--fy", type=float)
    g.add_argument("--cx", type=float)
    g.add_argument("--cy", type=float)
    g.add_argument("--keypoints", type=int)
    g.add_argument("--sigma", type=float, help="angular noise, degrees")
    g.add_argument("--flip-prob", dest="flip_prob", type=float)
    g.add_argument("--occlusion", type=float)
    g.add_argument("--z-min", dest="z_min", type=float)
    g.add_argument("--z-max", dest="z_max", type=float)
    g.add_argument("--margin", type=float)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="fit vector fields to scenes")
    add_common(t)
    t.add_argument("--scenes")
    t.add_argument("--out")
    t.add_argument("--mode", "--modes", dest="mode",
                   help="comma-separated: vf_only,vf_plus_dpvl,dpvl_only")
    t.add_argument("--seeds", "--seed", dest="seeds", help="comma-separated seeds")
    t.add_argument("--iters", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--iters-per-epoch", dest="iters_per_epoch", type=int)
    t.add_argument("--no-lr-decay", dest="lr_decay", action="store_false", default=None)
    t.add_argument("--beta0", type=float)
    t.add_argument("--beta-cap", dest="beta_cap", type=float)
    t.add_argument("--scene-limit", dest="scene_limit", type=int)
    t.set_defaults(func=cmd_train)

    v = sub.add_parser("vote", help="vote keypoints from stored scene fields")
    add_common(v)
    v.add_argument("--scenes")
    v.add_argument("--out")
    v.add_argument("--seed", type=int)
    v.add_argument("--num-samples", dest="num_samples", type=int)
    v.add_argument("--inlier-cos", dest="inlier_cos", type=float)
    v.set_defaults(func=cmd_vote)

    e = sub.add_parser("eval", help="vote, solve poses and score them")
    add_common(e)
    e.add_argument("--scenes")
    e.add_argument("--model")
    e.add_argument("--out")
    e.add_argument("--seed", type=int)
    e.add_argument("--symmetric", action="store_true", default=None)
    e.add_argument("--num-samples", dest="num_samples", type=int)
    e.add_argument("--inlier-cos", dest="inlier_cos", type=float)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="merge traces into an ablation report")
    add_common(r)
    r.add_argument("--traces", nargs="+")
    r.add_argument("--out")
    r.add_argument("--lpv-threshold", dest="lpv_threshold", type=float,
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
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ProxyVoteError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
