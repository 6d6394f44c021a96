"""Pipeline benchmark for the proxyvote CLI.

    python3 bench/run.py --workload {gen,infer,train} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout: the package is imported
from the checkout's ``src`` directory, so nothing needs installing. The
seed makes the inputs (a dense cube PLY and, for ``infer`` and
``train``, a scene set written by ``proxyvote gen`` and split into one
directory per scene); set-up is repeated and its median reported as
``setup_s``. One child process (bench/stages.py) then runs the
workload's CLI calls through ``proxyvote.cli.main`` in rounds until
``--seconds`` have passed. The first round's outputs are checked, and
every later round must write byte-identical files apart from the
manifest's ``wall_time_s``.

Timing: the first call of each stage warms the child up; every later
call is timed, and a round's time is the sum of each call's median.
Between calls the child times a fixed reference kernel, and the gated
``ref_throughput`` scales work per second by the kernel's median time,
so that a host that runs everything slower for a while moves it less.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
without tracing. ``--trace 1`` runs untraced rounds for half the time,
then a fresh child with one untraced warm-up round and one traced round,
and prints the per-layer metrics (bench/layers.py) together with the
tracing overhead. The last line of standard output is one JSON object:
correct, attempted, failed, metrics. See bench/README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from stages import tree_digest  # noqa: E402

# one BLAS/OpenMP thread per child and a single gen worker, so that one
# child process fits a 2-core machine with room for this parent process
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}

# train_err_px: output-check ceiling on the median fitted keypoint error;
# tens of iterations do not converge, so the tiny size has none
FULL = {"gen_scenes": 100, "infer_scenes": 12, "train_scenes": 5, "train_iters": 1000,
        "train_err_px": 1.0}
TINY = {"gen_scenes": 3, "infer_scenes": 2, "train_scenes": 2, "train_iters": 20,
        "train_err_px": math.inf}
KEYPOINTS = 8  # the CLI default: every scene carries this many fields
MODES = ("vf_only", "vf_plus_dpvl")
SETUP_REPS = 3
# ref_throughput is items per second on a host where one run of the
# reference kernel (stages.calibrate) takes this long
REF_KERNEL_S = 0.01
RUN_LIMIT_S = 170  # children still running this long after start are killed

# A narrow depth band keeps mask sizes, and so the work and the peak
# memory of a scene set, from swinging with the seed; rotation still varies.
DEPTH = ["--z-min", "0.55", "--z-max", "0.6"]
SMALL = ["--width", "64", "--height", "64", "--fx", "80", "--fy", "80"] + DEPTH
LARGE = ["--width", "128", "--height", "128", "--fx", "160", "--fy", "160"] + DEPTH
NOISE = ["--sigma", "5", "--flip-prob", "0.1", "--occlusion", "0.2"]

# Output-check limits. They sit well outside what the pipeline reaches on
# every seed and only catch gross breakage; the byte-identity check
# between rounds catches the rest.
# ADD accuracy has no limit: over 12 noisy scenes it ranges from 0.25 to
# 1.0 between seeds.
MAX_VOTE_ERR_PX = 1.0
MIN_PROJ_ACCURACY = 0.75


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed set-up)."""


def write_cube_ply(path, seed, extra=600, side=0.1):
    """Cube corners plus `extra` interior points, ASCII PLY."""
    rng = np.random.default_rng(seed)
    corners = [[x, y, z] for x in (0, side) for y in (0, side) for z in (0, side)]
    pts = np.vstack([corners, rng.uniform(0, side, (extra, 3))])
    header = ["ply", "format ascii 1.0", f"element vertex {len(pts)}",
              "property float x", "property float y", "property float z", "end_header"]
    rows = [f"{x!r} {y!r} {z!r}" for x, y, z in pts.tolist()]
    path.write_text("\n".join(header + rows) + "\n")


def gen_argv(model, out, n, seed, extra):
    return ["gen", "--model", model, "--out", out, "--n", n, "--seed", seed] + extra


def mask_px(scene_dir):
    """Masked pixels of a scene, read from its P2 mask without the package."""
    tokens = (scene_dir / "mask.pgm").read_text().split()
    return sum(t != "0" for t in tokens[4:])


def split_scenes(scenes):
    """Move each sample_* dir of a scene set into a group dir of its own
    (g00, g01, ...), which one vote, eval or train call reads."""
    for n, d in enumerate(sorted(scenes.glob("sample_*"))):
        group = scenes / f"g{n:02d}"
        group.mkdir()
        d.rename(group / d.name)


class Call:
    """One CLI call of a round: its stage, argv and output dir, the items
    it attempts (scenes, fit runs, or 1 for a report) and its share of the
    `throughput` work."""

    def __init__(self, stage, argv, out, items, work=0.0):
        self.stage, self.argv, self.out = stage, argv, out
        self.items, self.work = items, work


class Bench:
    """Inputs, calls and output checks of one workload at one seed."""

    def __init__(self, workload, seed, size, work):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.model = work / "cube.ply"
        self.scenes = work / "scenes"  # input scene set made at set-up
        self.out = work / "out"  # call outputs of the round running now
        self.keep = work / "first"  # outputs of the first round, for the checks
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def inputs(self):
        s = self.size
        if self.workload == "infer":
            return [Call("setup", gen_argv(self.model, self.scenes, s["infer_scenes"],
                                           self.seed, LARGE + NOISE), self.scenes, 0)]
        if self.workload == "train":
            return [Call("setup", gen_argv(self.model, self.scenes, s["train_scenes"],
                                           self.seed, SMALL), self.scenes, 0)]
        return []

    def arrange_inputs(self):
        if self.scenes.exists():
            split_scenes(self.scenes)

    def calls(self):
        o, s = self.out, self.size
        if self.workload == "gen":
            return [Call("gen", gen_argv(self.model, o / "gen", s["gen_scenes"], self.seed,
                                         SMALL + NOISE), o / "gen", s["gen_scenes"],
                         float(s["gen_scenes"]))]
        groups = [(g, sorted(g.glob("sample_*"))) for g in sorted(self.scenes.glob("g*"))]
        if self.workload == "infer":
            calls = []
            for group, scenes in groups:
                # 1,000 masked pixel-keypoints, voted once by each call
                work = sum(mask_px(d) for d in scenes) * KEYPOINTS / 1000.0
                vote, ev = o / f"vote_{group.name}", o / f"eval_{group.name}"
                calls += [Call("vote", ["vote", "--scenes", group, "--out", vote / "votes.csv",
                                        "--seed", self.seed], vote, len(scenes), work),
                          Call("eval", ["eval", "--scenes", group, "--model", self.model,
                                        "--out", ev, "--seed", self.seed], ev, len(scenes), work)]
            return calls
        calls = []
        for mode in MODES:
            for group, scenes in groups:
                fit = o / f"train_{mode}_{group.name}"
                calls.append(Call("train", ["train", "--scenes", group, "--out", fit,
                                            "--mode", mode, "--seeds", self.seed,
                                            "--iters", s["train_iters"]],
                                  fit, len(scenes), float(len(scenes) * s["train_iters"])))
        return calls + [Call("report", ["report", "--traces", *(c.out for c in calls),
                                        "--out", o / "report"], o / "report", 1)]

    # --- output checks, on the first round's outputs under self.keep ---

    def kept(self, call):
        return self.keep / call.out.relative_to(self.out)

    def check(self, calls):
        """Bad items of each call and the quality figures; `calls` and the
        returned bad items are keyed by the call's index in its round."""
        bad, quality = {}, {}
        for stage in dict.fromkeys(c.stage for c in calls.values()):
            mine = {i: c for i, c in calls.items() if c.stage == stage}
            try:
                stage_bad, stage_quality = getattr(self, f"_check_{stage}")(mine)
            except (OSError, ValueError, KeyError) as e:
                print(f"check of {stage} failed: {e!r}", file=sys.stderr)
                stage_bad, stage_quality = {i: c.items for i, c in mine.items()}, {}
            bad.update(stage_bad)
            quality.update(stage_quality)
        return bad, quality

    def _check_gen(self, calls):
        from proxyvote.errors import ProxyVoteError
        from proxyvote.synth import load_scene

        bad = {}
        for i, c in calls.items():
            dirs = sorted(self.kept(c).glob("sample_*"))
            good = 0
            for d in dirs:
                try:
                    sample = load_scene(d)
                except (ProxyVoteError, OSError, ValueError):
                    continue
                good += sample.mask.shape == (64, 64) and len(sample.gt_fields) == KEYPOINTS
            bad[i] = c.items - min(good, c.items) + max(len(dirs) - c.items, 0)
        return bad, {}

    def _check_vote(self, calls):
        bad, all_errs = {}, []
        for i, c in calls.items():
            with open(self.kept(c) / "votes.csv") as f:
                rows = list(csv.DictReader(f))
            errs = {}
            for r in rows:
                e = float(r["error_px"])
                if math.isfinite(e):
                    errs.setdefault(int(r["scene"]), []).append(e)
            good = sum(len(errs.get(si, [])) == KEYPOINTS for si in range(c.items))
            bad[i] = min(c.items - good + (len(rows) != c.items * KEYPOINTS), c.items)
            all_errs += [e for es in errs.values() for e in es]
        median = statistics.median(all_errs) if all_errs else math.inf
        if median > MAX_VOTE_ERR_PX:
            bad = {i: c.items for i, c in calls.items()}
        return bad, {"vote.kp_err_px_median": (median, "px")}

    def _check_eval(self, calls):
        bad, add, proj = {}, [], []
        for i, c in calls.items():
            with open(self.kept(c) / "records.csv") as f:
                rows = list(csv.DictReader(f))
            with open(self.kept(c) / "summary.json") as f:
                summary = json.load(f)
            good = sum(math.isfinite(float(r["add"])) and math.isfinite(float(r["proj2d"]))
                       for r in rows)
            bad[i] = min(c.items - min(good, c.items) + (len(rows) != c.items)
                         + (summary["scenes"] != c.items), c.items)
            add += [int(r["add_correct"]) for r in rows]
            proj += [int(r["proj_correct"]) for r in rows]
        proj_accuracy = statistics.mean(proj) if proj else 0.0
        if proj_accuracy < MIN_PROJ_ACCURACY:
            bad = {i: c.items for i, c in calls.items()}
        return bad, {"eval.add_accuracy": (statistics.mean(add) if add else 0.0, "fraction"),
                     "eval.proj_accuracy": (proj_accuracy, "fraction")}

    def _check_train(self, calls):
        bad, errs = {}, []
        for i, c in calls.items():
            mode = c.argv[c.argv.index("--mode") + 1]
            bad[i] = 0
            for si in range(c.items):
                path = self.kept(c) / f"summary_scene{si:03d}_{mode}_seed{self.seed}.json"
                try:
                    run = json.loads(path.read_text())
                except (OSError, ValueError):
                    bad[i] += 1
                    continue
                e = run.get("keypoint_errors", [])
                bad[i] += len(e) != KEYPOINTS or not all(map(math.isfinite, e))
                errs.extend(e)
        median = statistics.median(errs) if errs else math.inf
        if median > self.size["train_err_px"]:
            bad = {i: c.items for i, c in calls.items()}
        return bad, {"train.kp_err_px_median": (median, "px")}

    def _check_report(self, calls):
        bad = {}
        for i, c in calls.items():
            d = self.kept(c)
            try:
                json.loads((d / "report.json").read_text())
                ok = (d / "report.txt").is_file() and (d / "curves.csv").is_file()
            except (OSError, ValueError):
                ok = False
            bad[i] = int(not ok)
        return bad, {}

    def columns_per_trace(self):
        """Curve columns written by report per trace file it read."""
        if self.workload != "train":
            return None
        header = (self.keep / "report" / "curves.csv").read_text().split("\n", 1)[0]
        traces = len(list(self.keep.glob("train_*/trace_*.csv")))
        return (len(header.split(",")) - 1) / traces


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PROXY_VOTE_THREADS"}
    env.update(THREAD_ENV)
    return env


def run_child(bench, calls, trace=False, window_s=0.0, min_rounds=1, keep_first=False,
              calibrate=False):
    """Run rounds of CLI calls in a fresh child (bench/stages.py); None if
    it crashed or timed out. With keep_first, each round writes under
    bench.out and the first round's outputs are kept under bench.keep."""
    plan, result = bench.work / "plan.json", bench.work / "result.json"
    result.unlink(missing_ok=True)
    plan.write_text(json.dumps({
        "src": str(SRC), "trace": trace, "calibrate": calibrate,
        "window_s": window_s, "min_rounds": min_rounds,
        "out": str(bench.out) if keep_first else None,
        "keep": str(bench.keep) if keep_first else None,
        "calls": [[c.stage, [str(a) for a in c.argv], str(c.out)] for c in calls]}))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "stages.py"), str(plan), str(result)],
                              env=child_env(), stdout=sys.stderr,
                              timeout=max(bench.deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not result.exists():
        return None
    res = json.loads(result.read_text())
    if not Path(res["package_file"]).is_relative_to(SRC):
        raise BenchError(f"child imported {res['package_file']}, not the package under {SRC}")
    return res


def setup(bench):
    """Write the model and the input scene sets, timed; repeated SETUP_REPS
    times, and every repetition must write the same files."""
    times, digest = [], None
    for _ in range(SETUP_REPS):
        shutil.rmtree(bench.scenes, ignore_errors=True)
        t = time.perf_counter()
        write_cube_ply(bench.model, bench.seed)
        res = run_child(bench, bench.inputs())
        if res is None or any(c["rc"] != 0 for c in res["rounds"][0]):
            raise BenchError("set-up failed: the package did not import or gen failed")
        bench.arrange_inputs()
        times.append(time.perf_counter() - t)
        d = hashlib.sha256(bench.model.read_bytes()).hexdigest()
        if bench.scenes.exists():
            d += tree_digest(bench.scenes)
        if digest not in (None, d):
            raise BenchError("set-up is not deterministic: input files differ between runs")
        digest = d
    return times


class Tally:
    """Attempted and failed items, and each call's reference: the digest
    of its outputs in the untraced child's first round, and the bad items
    the output checks found there."""

    def __init__(self, bench, calls):
        self.bench = bench
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.reference = []  # per call: (digest or None, bad items)
        self.quality = {}

    def record(self, res):
        """Count every call of every round; returns, per call, the wall
        times of its clean timed runs. The first call of each stage in the
        child warms it up (lazy imports, first allocations) and is not
        timed; every later call is."""
        if res is None:  # the child crashed: count one whole round as failed
            lost = sum(c.items for c in self.calls)
            self.attempted += lost
            self.failed += lost
            return [[] for _ in self.calls]
        if not self.reference:
            first = res["rounds"][0]
            bad, self.quality = self.bench.check(
                {i: self.calls[i] for i, r in enumerate(first) if r["digest"]})
            self.reference = [(r["digest"], bad[i]) if r["digest"] else (None, c.items)
                              for i, (c, r) in enumerate(zip(self.calls, first))]
        warm_up = {c.stage: i for i, c in reversed(list(enumerate(self.calls)))}
        clean = [[] for _ in self.calls]
        for n, round_ in enumerate(res["rounds"]):
            for i, r in enumerate(round_):
                items = self.calls[i].items
                ref_digest, ref_bad = self.reference[i]
                same = r["digest"] is not None and r["digest"] == ref_digest
                if ref_digest is not None and not same:
                    print(f"{r['name']}: outputs differ from the first round", file=sys.stderr)
                bad = ref_bad if same else items
                self.attempted += items
                self.failed += bad
                if bad == 0 and (n > 0 or warm_up[r["name"]] != i):
                    clean[i].append(r["wall_s"])
        return clean


def end_to_end(calls, setup_times, walls, res):
    """Every user-visible figure, name -> (value, unit), from the untraced
    child. A round's time is the sum, over its calls, of each call's
    median wall time across its timed runs; ref_throughput rescales
    throughput by the reference kernel's median time."""
    out = {"setup_s": (statistics.median(setup_times), "s")}
    if not all(walls):
        return out
    medians = [statistics.median(w) for w in walls]
    out["wall_s"] = (sum(medians), "s")
    out["throughput"] = (sum(c.work for c in calls) / sum(medians), "items/s")
    cal = statistics.median(res["cal_s"])
    out["ref_kernel_ms"] = (cal * 1e3, "ms")
    out["ref_throughput"] = (out["throughput"][0] * cal / REF_KERNEL_S, "items/ref_s")
    out["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    out["timed_runs_min"] = (min(len(w) for w in walls), "count")
    per_stage = {"gen": ("gen.scenes_per_s", "scenes/s"),
                 "vote": ("vote.scenes_per_s", "scenes/s"),
                 "eval": ("eval.scenes_per_s", "scenes/s"),
                 "train": ("train.fit_iters_per_s", "iters/s")}
    for stage, (name, unit) in per_stage.items():
        mine = [(c, m) for c, m in zip(calls, medians) if c.stage == stage]
        if mine:
            n = sum(c.work if stage == "train" else c.items for c, _ in mine)
            out[name] = (n / sum(m for _, m in mine), unit)
    return out


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(bench, seconds, trace):
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "commit": git_commit(),
            "workload": bench.workload, "seed": bench.seed, "seconds": seconds,
            "trace": trace, "sizes": bench.size,
            "threads": {**THREAD_ENV, "PROXY_VOTE_THREADS": "unset"}}


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not (SRC / "proxyvote" / "cli.py").is_file():
        raise BenchError(f"no proxyvote source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    declared = declared_metrics(args.trace)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, TINY if args.tiny else FULL, work)
    try:
        print("env " + json.dumps(environment(bench, args.seconds, args.trace), sort_keys=True))
        setup_times = setup(bench)
        calls = bench.calls()
        tally = Tally(bench, calls)
        # untraced rounds for the window (half of it when tracing); the
        # first round warms the child up and is checked but not timed
        window = args.seconds / 2 if args.trace else args.seconds
        res = run_child(bench, calls, window_s=window, min_rounds=2, keep_first=True,
                        calibrate=True)
        walls = tally.record(res)
        shown = end_to_end(calls, setup_times, walls, res)
        shown.update(tally.quality)
        if args.trace:
            # a fresh child: one untraced warm-up round, then one traced round
            traced = run_child(bench, calls, trace=True, min_rounds=2, keep_first=True)
            tally.record(traced)
        shown["failed_frac"] = (tally.failed / tally.attempted, "fraction")
        if args.trace and traced is not None:
            traced["stages"] = traced["rounds"][1]
            layers = layer_metrics(traced, bench.columns_per_trace())
            traced_wall = sum(c["wall_s"] for c in traced["stages"])
            layers["trace.traced_wall_s"] = traced_wall
            if "wall_s" in shown:
                untraced = shown["wall_s"][0]
                layers["trace.untraced_wall_s"] = untraced
                layers["trace.overhead_frac"] = traced_wall / untraced - 1.0
            shown.update((k, (v, declared.get(k, ""))) for k, v in layers.items())
            spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(traced))
            if traced["missing"]:
                print("missing trace targets: " + ", ".join(traced["missing"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(calls)} calls a round; call times are medians over their timed runs")
    for name in sorted(shown):
        value, unit = shown[name]
        print(f"{name} {value:.6g} {unit}")
    metrics = {name: {"value": shown[name][0], "unit": unit}
               for name, unit in declared.items() if name in shown}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("gen", "infer", "train"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few scenes and tens of iterations, for the self-test")
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
