"""Desk-scale field optimization: per-pixel vector-field parameters fitted
by Adam against the regression and proxy-voting losses.

Modes: vf_only (regression only), vf_plus_dpvl (regression plus the
scheduled proxy term), dpvl_only (proxy term alone; expected to suffer
the direction/sign ambiguity). The losses come from ``losses.py``,
computed on the masked pixels of all keypoints at once. Only the
gradients are divided by the masked-pixel count, so that learning rates
transfer across mask sizes; the traced l_vf and l_pv are raw sums over
masked pixels and keypoints.

``fit_field`` keeps the parameters, the ground truth, the keypoint
offsets and both Adam moments as component-planar (2, K, M) arrays, and
one ``PlanarLosses`` and one set of gradient and Adam buffers serve every
iteration. The Adam step runs in place with the operations of the
textbook update in the same order, so its bits are those of
m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
x -= lr m̂ / (sqrt(v̂) + eps).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError, ProxyVoteError
from .geometry import pixel_centers
from .losses import (DEFAULT_SCHEDULE, PlanarLosses, WeightSchedule, planar,
                     schedule_weights)
from .metrics import evaluate
from .pnp import solve_epnp
from .synth import SceneSample, _fmt, write_atomic
from .voting import VotingConfig, vote_keypoint

MODES = ("vf_only", "vf_plus_dpvl", "dpvl_only")

# named sub-streams hanging off a single user seed
_STREAMS = {"scene": 0, "noise": 1, "voting": 2, "init": 3}


def substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[name]]))


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    schedule: WeightSchedule = DEFAULT_SCHEDULE
    iters_per_epoch: int = 100
    mode: str = "vf_plus_dpvl"
    rng_seed: int = 0
    lr_decay: bool = True  # 0.85 every 5 epochs, floored at 1e-5

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass
class TrainTrace:
    iters: np.ndarray
    l_vf: np.ndarray
    l_pv: np.ndarray
    mean_proxy_dist: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    keypoint_errors: np.ndarray = field(default_factory=lambda: np.empty(0))
    # (K, 2) voted keypoints of the fitted field; NaN where voting failed
    keypoint_locations: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def rows(self):
        for i in range(len(self.iters)):
            yield (int(self.iters[i]), self.l_vf[i], self.l_pv[i],
                   self.mean_proxy_dist[i], self.alpha[i], self.beta[i])

    def to_csv(self, path):
        lines = ["iter,l_vf,l_pv,mean_proxy_dist,alpha,beta"]
        for it, lvf, lpv, mpd, a, b in self.rows():
            lines.append(f"{it},{_fmt(lvf)},{_fmt(lpv)},{_fmt(mpd)},{_fmt(a)},{_fmt(b)}")
        write_atomic(path, "\n".join(lines) + "\n")


def _decayed_lr(cfg: TrainConfig, epoch: int) -> float:
    if not cfg.lr_decay:
        return cfg.learning_rate
    return max(cfg.learning_rate * 0.85 ** (epoch // 5), 1e-5)


def random_init_field(sample: SceneSample, rng) -> np.ndarray:
    """Standard-normal per-pixel init over the masked region, zero outside."""
    k = len(sample.keypoints2)
    init = rng.standard_normal((k, sample.height, sample.width, 2))
    return np.where(sample.mask[None, :, :, None], init, 0.0)


def fit_field(sample: SceneSample, init: np.ndarray, cfg: TrainConfig):
    """Adam on the stacked (K, H, W, 2) field. Returns (field, trace).

    Only masked pixels are optimized; everything outside the mask is
    returned unchanged from init.
    """
    init = np.asarray(init, dtype=float)
    k, h, w = init.shape[:3]
    mask = sample.mask
    n_masked = max(int(np.count_nonzero(mask)), 1)

    est = planar(init[:, mask, :])  # (2, K, M)
    gt = planar(sample.gt_fields[:, mask, :])
    off = planar(sample.keypoints2[:, None, :] - pixel_centers(h, w)[mask])  # k - p

    losses = PlanarLosses(est.shape[1:])
    grad, m, v, step, denom = (np.zeros_like(est) for _ in range(5))
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    n = cfg.iterations
    tr_iter = np.arange(n)
    tr_lvf = np.zeros(n)
    tr_lpv = np.zeros(n)
    tr_mpd = np.zeros(n)
    tr_a = np.zeros(n)
    tr_b = np.zeros(n)

    # non-finite fields are tolerated here; the summed losses are checked
    # in every iteration and raise DivergenceError
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for it in range(n):
            epoch = it // cfg.iters_per_epoch
            alpha, beta = schedule_weights(epoch, cfg.schedule)
            lr = _decayed_lr(cfg, epoch)

            l_vf = losses.vf(est, gt)
            l_pv = losses.proxy(est, off)
            if cfg.mode == "vf_only":
                np.divide(losses.vf_grad, n_masked, out=grad)
            else:
                np.multiply(losses.proxy_grad(est, off), beta, out=grad)
                if cfg.mode == "vf_plus_dpvl":
                    np.add(losses.vf_grad, grad, out=grad)
                np.divide(grad, n_masked, out=grad)

            tr_lvf[it] = l_vf
            tr_lpv[it] = l_pv
            tr_mpd[it] = losses.mean_proxy_dist()
            tr_a[it] = alpha
            tr_b[it] = beta
            if not (np.isfinite(l_vf) and np.isfinite(l_pv)):
                trace = TrainTrace(tr_iter[: it + 1], tr_lvf[: it + 1], tr_lpv[: it + 1],
                                   tr_mpd[: it + 1], tr_a[: it + 1], tr_b[: it + 1])
                raise DivergenceError(f"non-finite loss at iteration {it}", trace=trace)

            # Adam step (bias-corrected), in place
            np.multiply(m, b1, out=m)
            np.multiply(grad, 1 - b1, out=step)
            np.add(m, step, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(grad, 1 - b2, out=step)
            np.multiply(step, grad, out=step)
            np.add(v, step, out=v)
            np.divide(m, 1 - b1 ** (it + 1), out=step)  # m-hat
            np.divide(v, 1 - b2 ** (it + 1), out=denom)  # v-hat
            np.sqrt(denom, out=denom)
            np.add(denom, cfg.adam_eps, out=denom)
            np.multiply(step, lr, out=step)
            np.divide(step, denom, out=step)
            np.subtract(est, step, out=est)

    fields = np.array(init, copy=True)
    fields[:, mask, :] = est.transpose(1, 2, 0)

    vote_cfg = VotingConfig(rng_seed=int(substream(cfg.rng_seed, "voting").integers(2 ** 63)))
    errs = np.full(k, np.inf)
    locs = np.full((k, 2), np.nan)
    for ki in range(k):
        try:
            locs[ki], _ = vote_keypoint(fields[ki], mask, vote_cfg)
        except ProxyVoteError:
            continue  # unresolvable field counts as a failed keypoint
        errs[ki] = float(np.linalg.norm(locs[ki] - sample.keypoints2[ki]))
    trace = TrainTrace(tr_iter, tr_lvf, tr_lpv, tr_mpd, tr_a, tr_b,
                       keypoint_errors=errs, keypoint_locations=locs)
    return fields, trace


def run_experiment(scenes, modes, seeds, cfg_base: TrainConfig, out_dir,
                   diameter: float | None = None):
    """Paired fits across modes and seeds over one or more scenes.

    Same seed means same random init across modes. Writes one trace CSV
    and one JSON summary per (scene, mode, seed) run plus a top-level
    summary; returns the summary dict.
    """
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for si, sample in enumerate(scenes):
        for seed in seeds:
            init = random_init_field(sample, substream(seed, "init"))
            for mode in modes:
                cfg = replace(cfg_base, mode=mode, rng_seed=seed)
                _, trace = fit_field(sample, init, cfg)
                tag = f"scene{si:03d}_{mode}_seed{seed}"
                trace.to_csv(os.path.join(out_dir, f"trace_{tag}.csv"))

                run = {
                    "scene": si,
                    "mode": mode,
                    "seed": int(seed),
                    "final_l_vf": float(trace.l_vf[-1]),
                    "final_l_pv": float(trace.l_pv[-1]),
                    "final_mean_proxy_dist": float(trace.mean_proxy_dist[-1]),
                    "keypoint_errors": [float(e) for e in trace.keypoint_errors],
                }
                if np.all(np.isfinite(trace.keypoint_errors)):
                    try:
                        est = solve_epnp(sample.keypoints3, trace.keypoint_locations,
                                         sample.intr)
                        dia = diameter if diameter is not None else _cloud_diameter(sample)
                        rec = evaluate(sample.pose, est, sample.keypoints3,
                                       sample.intr, dia)
                        run["add"] = rec.add
                        run["proj2d"] = rec.proj2d
                        run["add_correct"] = bool(rec.add_correct)
                        run["proj_correct"] = bool(rec.proj_correct)
                    except (ProxyVoteError, np.linalg.LinAlgError) as e:
                        run["pose_error"] = str(e)
                write_atomic(os.path.join(out_dir, f"summary_{tag}.json"),
                             json.dumps(run, indent=2, sort_keys=True) + "\n")
                runs.append(run)
    summary = {"runs": runs, "modes": list(modes), "seeds": [int(s) for s in seeds]}
    write_atomic(os.path.join(out_dir, "summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _cloud_diameter(sample: SceneSample) -> float:
    from scipy.spatial.distance import pdist

    return float(pdist(sample.keypoints3).max())
