"""Per-layer metrics from the spans of one traced run (see stages.py).

Layers are the package's modules. A span's self time is its duration
minus the durations of its direct child spans; time inside a CLI stage
that no other span covers is charged to ``cli``. A metric whose span was
not installed (its target name no longer exists) is left out.
"""

from __future__ import annotations

MODULES = ("cli", "synth", "model_tools", "voting", "trainer", "pnp", "metrics")
STAGES = ("gen", "train", "vote", "eval", "report")


def _aggregate(spans):
    child_s = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    agg = {}
    for i, (name, parent, start, end, counters) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += end - start - child_s[i]
        a["errors"] += "error" in counters
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                a[key] = a.get(key, 0) + value
    return agg


def _per(total, count, scale=1.0):
    return total * scale / count if count else 0.0


def layer_metrics(traced, columns_per_trace):
    """Metrics of one traced child result; columns_per_trace comes from
    the report outputs, or None when the workload has no report stage."""
    agg = _aggregate(traced["spans"])
    installed = set(traced["installed"])
    wall = sum(s["wall_s"] for s in traced["stages"])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
    out = {}

    def span(name):
        return agg.get(name, empty)

    def put(name, needs, value):
        if needs in installed:
            out[name] = value

    vk = span("voting.vote_keypoint")
    tests = vk.get("px_hyps", 0)
    put("voting.vote_keypoint.calls", "voting.vote_keypoint", vk["calls"])
    put("voting.vote_keypoint.ms_per_call", "voting.vote_keypoint",
        _per(vk["total_s"], vk["calls"], 1e3))
    put("voting.vote_keypoint.busy_frac", "voting.vote_keypoint", _per(vk["total_s"], wall))
    put("voting.pixel_hyp_tests", "voting.vote_keypoint", tests)
    put("voting.ns_per_pixel_hyp_test", "voting.vote_keypoint", _per(vk["total_s"], tests, 1e9))
    put("voting.winner_inlier_frac", "voting.vote_keypoint",
        _per(vk.get("votes", 0), vk.get("voted_px", 0)))
    put("voting.failures", "voting.vote_keypoint", vk["errors"])

    sp = span("synth.sample_pose")
    put("synth.sample_pose.calls", "synth.sample_pose", sp["calls"])
    put("synth.sample_pose.ms", "synth.sample_pose", sp["total_s"] * 1e3)
    for name in ("make_scene", "corrupt", "save_scene", "load_scene"):
        a = span(f"synth.{name}")
        put(f"synth.{name}.ms_per_call", f"synth.{name}", _per(a["total_s"], a["calls"], 1e3))
    for name in ("save_scene", "load_scene"):
        a = span(f"synth.{name}")
        put(f"synth.{name}.mb_per_s", f"synth.{name}",
            _per(a.get("bytes", 0), a["total_s"], 1e-6))
    io = [span(f"synth.{n}") for n in ("save_scene", "load_scene")]
    if {"synth.save_scene", "synth.load_scene"} & installed:
        out["synth.scene_bytes"] = _per(sum(a.get("bytes", 0) for a in io),
                                        sum(a["calls"] for a in io))

    for name in ("load_model", "farthest_point_sampling"):
        a = span(f"model_tools.{name}")
        put(f"model_tools.{name}.calls", f"model_tools.{name}", a["calls"])
        put(f"model_tools.{name}.ms", f"model_tools.{name}", a["total_s"] * 1e3)

    ff = span("trainer.fit_field")
    put("trainer.fit_field.calls", "trainer.fit_field", ff["calls"])
    put("trainer.fit_field.self_us_per_iter", "trainer.fit_field",
        _per(ff["self_s"], ff.get("iters", 0), 1e6))
    put("trainer.fit_field.busy_frac", "trainer.fit_field", _per(ff["total_s"], wall))
    put("trainer.run_experiment.self_ms", "trainer.run_experiment",
        span("trainer.run_experiment")["self_s"] * 1e3)

    pe = span("pnp.solve_epnp")
    put("pnp.solve_epnp.calls", "pnp.solve_epnp", pe["calls"])
    put("pnp.solve_epnp.ms_per_call", "pnp.solve_epnp", _per(pe["total_s"], pe["calls"], 1e3))
    put("pnp.solve_epnp.failures", "pnp.solve_epnp", pe["errors"])
    ev = span("metrics.evaluate")
    put("metrics.evaluate.calls", "metrics.evaluate", ev["calls"])
    put("metrics.evaluate.ms_per_call", "metrics.evaluate", _per(ev["total_s"], ev["calls"], 1e3))

    for stage in STAGES:
        put(f"cli.{stage}.self_ms", f"cli.{stage}", span(f"cli.{stage}")["self_s"] * 1e3)
    if "cli.report" in installed:
        out["cli.report.columns_per_trace"] = columns_per_trace or 0.0

    self_s = {m: 0.0 for m in MODULES}
    for name, a in agg.items():
        self_s[name.split(".", 1)[0]] += a["self_s"]
    # whatever no other span covers inside the stages belongs to the CLI
    self_s["cli"] = wall - sum(v for m, v in self_s.items() if m != "cli")
    for module in MODULES:
        out[f"{module}.self_share"] = _per(self_s[module], wall)
    return out
