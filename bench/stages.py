"""Benchmark child process: run proxyvote CLI calls in rounds, in this process.

    python3 bench/stages.py PLAN.json RESULT.json

PLAN holds {"src": <dir holding the proxyvote package>, "trace": bool,
"calibrate": bool, "calls": [[stage, argv, output dir], ...],
"out": <dir>, "keep": <dir>, "window_s": float, "min_rounds": int}.
A round runs every call once, in order, through ``proxyvote.cli.main``;
each call is timed around that call only, so interpreter start-up and
the package import are left out.
Before each round "out" (when set) is emptied; after it, each call's
output dir is hashed, and the first round's "out" is moved to "keep"
(when set) for the caller's output checks. Rounds repeat until
"min_rounds" are done and "window_s" has passed since the first call
started; once both hold, the child stops between calls, so the last
round may be partial. RESULT receives every call's exit code, wall time
and output digest per round, and the process's peak resident set size.

With "calibrate" set, a fixed reference kernel (``calibrate``) is timed
before each call, once per ``CAL_EVERY_S`` of that call's last wall
time, and RESULT lists every kernel time under "cal_s".

With "trace" set, public functions are wrapped from outside, at the
module attribute their callers look them up by (see ``TARGETS``), from
the second round on, so that the first round warms the process up
untraced. Every call of a wrapped function becomes a span (name, parent,
start, end, counters). The spans stay in memory and go into RESULT at
the end. A target that no longer exists is listed under "missing" and
skipped, so a refactor that removes a name drops its metrics instead of
failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

# span name -> the (module, attribute) sites callers look it up at
TARGETS = {
    "cli.gen": [("proxyvote.cli", "cmd_gen")],
    "cli.train": [("proxyvote.cli", "cmd_train")],
    "cli.vote": [("proxyvote.cli", "cmd_vote")],
    "cli.eval": [("proxyvote.cli", "cmd_eval")],
    "cli.report": [("proxyvote.cli", "cmd_report")],
    "synth.sample_pose": [("proxyvote.cli", "sample_pose")],
    "synth.make_scene": [("proxyvote.cli", "make_scene")],
    "synth.corrupt": [("proxyvote.cli", "corrupt")],
    "synth.save_scene": [("proxyvote.cli", "save_scene")],
    "synth.load_scene": [("proxyvote.cli", "load_scene")],
    "model_tools.load_model": [("proxyvote.cli", "load_model")],
    "model_tools.farthest_point_sampling": [("proxyvote.cli", "farthest_point_sampling")],
    "model_tools.model_diameter": [("proxyvote.cli", "model_diameter")],
    "voting.vote_keypoint": [("proxyvote.cli", "vote_keypoint"),
                             ("proxyvote.trainer", "vote_keypoint")],
    "pnp.solve_epnp": [("proxyvote.cli", "solve_epnp"),
                       ("proxyvote.trainer", "solve_epnp")],
    "metrics.evaluate": [("proxyvote.cli", "evaluate"),
                         ("proxyvote.trainer", "evaluate")],
    "trainer.run_experiment": [("proxyvote.cli", "run_experiment")],
    "trainer.fit_field": [("proxyvote.trainer", "fit_field")],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dir_bytes(directory):
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


def _vote_counts(args, kwargs, result):
    px = int(_arg(args, kwargs, 1, "mask").sum())
    # nominal work: every sampled hypothesis is tested against every masked pixel
    counts = {"px_hyps": px * int(_arg(args, kwargs, 2, "cfg").num_samples)}
    if result is not None:
        counts.update(votes=int(result[1]), voted_px=px)
    return counts


# counters taken at a span's boundary, after its end time is recorded
COUNTERS = {
    "voting.vote_keypoint": _vote_counts,
    "synth.save_scene": lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 0, "directory"))},
    "synth.load_scene": lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 0, "directory"))},
    "trainer.fit_field": lambda a, k, r: {"iters": int(_arg(a, k, 2, "cfg").iterations)},
}


class Tracer:
    """Wraps the sites of `targets` and records one span per call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, parent index or -1, start, end, counters]
        self.installed = set()
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        for name, sites in self.targets.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
                self.installed.add(name)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                span[4]["error"] = type(e).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    try:
                        span[4].update(count(args, kwargs, result))
                    except Exception as e:  # a changed signature drops the counter only
                        span[4]["counter_error"] = repr(e)

        return traced


def tree_digest(directory):
    """Hash of every file under directory; manifest wall_time_s is dropped."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                data = f.read()
            if name == "manifest.json":
                doc = json.loads(data)
                doc.pop("wall_time_s", None)
                data = json.dumps(doc, sort_keys=True).encode()
            h.update(os.path.relpath(path, directory).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# Reference kernel: array passes like voting's, then small-array steps
# like fitting's; about 10 ms on a 2-core Xeon. Its arrays are allocated
# once, here, so that its time does not depend on the allocator state the
# calls before it leave behind.
_CAL_A = np.linspace(-1.0, 1.0, 64 * 1024).reshape(64, 1024)
_CAL_B = _CAL_A[::-1].copy()
_CAL_T = np.empty((2,) + _CAL_A.shape)
_CAL_M = np.empty(_CAL_A.shape, dtype=bool)
CAL_EVERY_S = 0.25  # one kernel run per this much call time


def calibrate():
    """Wall time of one run of the fixed reference kernel."""
    t = time.perf_counter()
    d, r = _CAL_T
    for _ in range(4):
        np.subtract(_CAL_A, _CAL_B, out=d)
        np.hypot(d, _CAL_B, out=r)
        np.multiply(d, _CAL_A, out=d)
        np.add(r, 1.0, out=r)
        np.divide(d, r, out=d)
        np.greater(d, 0.1, out=_CAL_M)
        np.count_nonzero(_CAL_M)
    m, v = np.eye(3), np.ones(3)
    for i in range(800):
        v = m @ v * 0.5 + float(i % 7)
    return time.perf_counter() - t


def run_call(cli, argv):
    """Exit code and wall time of one CLI call; a crash is exit code -1."""
    t = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t


def main(plan_path, result_path):
    with open(plan_path) as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])
    from proxyvote import cli

    out, keep = plan.get("out"), plan.get("keep")
    tracer = Tracer() if plan["trace"] else None
    rounds, cal_s = [], []
    start = time.perf_counter()

    def done():
        return (len(rounds) >= plan["min_rounds"]
                and time.perf_counter() - start >= plan["window_s"])

    try:
        while not done():
            if tracer is not None and len(rounds) == 1:
                tracer.install()
            if out:
                shutil.rmtree(out, ignore_errors=True)
                os.makedirs(out)
            calls = []
            for k, (stage, argv, _) in enumerate(plan["calls"]):
                if calls and done():
                    break
                if plan["calibrate"]:
                    # kernel runs in proportion to the call's last wall time
                    last = rounds[-1][k]["wall_s"] if rounds else 0.0
                    cal_s += [calibrate() for _ in range(max(1, round(last / CAL_EVERY_S)))]
                rc, wall = run_call(cli, argv)
                calls.append({"name": stage, "rc": rc, "wall_s": wall})
            for call, (_, _, call_out) in zip(calls, plan["calls"]):
                ok = call["rc"] == 0 and os.path.isdir(call_out)
                call["digest"] = tree_digest(call_out) if ok else None
            if keep and not rounds:
                shutil.rmtree(keep, ignore_errors=True)
                os.replace(out, keep)
            rounds.append(calls)
    finally:
        if tracer is not None:
            tracer.restore()
        if out:
            shutil.rmtree(out, ignore_errors=True)

    result = {
        "package_file": os.path.abspath(cli.__file__),
        "rounds": rounds,
        "cal_s": cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, installed=sorted(tracer.installed),
                      missing=tracer.missing)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
