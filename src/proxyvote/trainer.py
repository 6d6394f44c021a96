"""Desk-scale field optimization: an affine vector field per keypoint
fitted by Adam against the regression and proxy-voting losses.

Modes: vf_only (regression only), vf_plus_dpvl (regression plus the
scheduled proxy term), dpvl_only (proxy term alone; it suffers the
direction/sign ambiguity). The losses come from ``losses.py``, computed
on the masked pixels of all keypoints at once. Only the gradients are
divided by the masked-pixel count, so that learning rates transfer
across mask sizes; the traced l_vf and l_pv are raw sums over masked
pixels and keypoints, and the traced mean_proxy_dist is a per-pixel
mean, in px.

A ``TrainConfig`` holds every setting of a fit. Per epoch of
iters_per_epoch iterations, ``_beta`` grows the proxy term's weight by
BETA_FACTOR from beta0 up to beta_cap, and ``_decayed_lr`` cuts the
learning rate by 0.85 every 5 epochs down to 1e-5, or to the rate
itself when that is lower.

Field stacks are (K, M, 2), at the M masked pixels in row-major order,
as ``SceneSample.fields`` holds them. ``fit_field`` fits (2, K, 3)
coefficients: each component of keypoint k's field is c0 + c1 x̃ + c2 ỹ,
x̃ and ỹ the masked pixel centres centred on their mean and divided by
their std. Like the paper's network, the affine field couples the
pixels: DPVL alone is zero on every c·(k - p), so the sign of c comes
from the init. The fit starts at the least-squares projection of init;
each iteration expands the coefficients to the component-planar
(2, K, M) field, coef @ Φ, and steps on g·Φᵀ, g the losses' gradient
there. Through these matmuls the fitted bits depend on the BLAS kernel.
The Adam step is the textbook one, m = b1 m + (1 - b1) g,
v = b2 v + (1 - b2) g g and x -= lr m̂ / (sqrt(v̂) + eps).

A fit ends by voting its fields with ``vote_keypoints``, which ``vote``
and ``eval`` share too: it calls ``vote_keypoint`` once per keypoint,
the K calls sharing one ``voting.SceneVote`` pass, and turns each
keypoint's failure into a "keypoint i: reason" entry; all three vote
with the config that ``voting_config`` makes of a seed.
``run_experiment`` saves each fitted field stack as a scene for them;
the trainer scores no pose. It owns a train run's layout: its file names
(``TRACE_NAME`` matches a trace's) and the trace CSV's ``TRACE_COLUMNS``,
which ``TrainTrace.to_csv`` writes through ``synth.csv_text`` and
``TrainTrace.read`` reads back; summaries go through ``synth.write_json``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError, ModelLoadError, ProxyVoteError
from .geometry import pixel_centers
from .losses import planar, proxy_grad, proxy_terms, vf_terms
from .synth import (SceneSample, csv_text, load_csv, read_text, save_scene, scene_dir,
                    write_atomic, write_json)
from .voting import SceneVote, VotingConfig, vote_keypoint

MODES = ("vf_only", "vf_plus_dpvl", "dpvl_only")
TRACE_COLUMNS = ("iter", "l_vf", "l_pv", "mean_proxy_dist", "beta")  # TrainTrace's, in order

# named sub-streams hanging off a single user seed
_STREAMS = {"scene": 0, "noise": 1, "voting": 2, "init": 3}

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
BETA_FACTOR = 1.5  # beta's growth per epoch


def substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[name]]))


def subseed(seed: int, name: str) -> int:
    """The integer seed that the named sub-stream of seed hands a consumer
    with a seed of its own, such as a VotingConfig or a NoiseSpec."""
    return int(substream(seed, name).integers(2 ** 63))


def voting_config(seed: int, **settings) -> VotingConfig:
    """The VotingConfig of seed's voting sub-stream, with settings: fit, vote, eval."""
    return VotingConfig(rng_seed=subseed(seed, "voting"), **settings)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    learning_rate: float = 3e-3
    beta0: float = 1e-3  # proxy-term weight at epoch 0, grown by BETA_FACTOR per epoch
    beta_cap: float = 1e-2
    iters_per_epoch: int = 100
    mode: str = "vf_plus_dpvl"
    rng_seed: int = 0
    lr_decay: bool = True  # 0.85 every 5 epochs, floored at min(learning_rate, 1e-5)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.iters_per_epoch < 1:
            raise ValueError("iters_per_epoch must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.beta0 <= self.beta_cap < np.inf:
            raise ValueError("need 0 <= beta0 <= beta_cap < inf")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass
class TrainTrace:
    iters: np.ndarray
    l_vf: np.ndarray
    l_pv: np.ndarray
    mean_proxy_dist: np.ndarray
    beta: np.ndarray
    keypoint_errors: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_csv(self, path):
        write_atomic(path, csv_text(TRACE_COLUMNS, [self.iters, self.l_vf, self.l_pv,
                                                    self.mean_proxy_dist, self.beta]))

    @classmethod
    def read(cls, path) -> TrainTrace:
        """The trace in the CSV at path, its columns found by name, others (older
        traces' alpha) skipped; ModelLoadError naming path if one is missing or
        there is no row."""
        names = read_text(path).partition("\n")[0].split(",")
        missing = [c for c in TRACE_COLUMNS if c not in names]
        if missing:
            raise ModelLoadError(f"{path}: no {', '.join(missing)} column")
        data = load_csv(path, len(names))
        if not len(data):
            raise ModelLoadError(f"{path}: no rows")
        return cls(*(data[:, names.index(c)] for c in TRACE_COLUMNS))


def _decayed_lr(cfg: TrainConfig, epoch: int) -> float:
    if not cfg.lr_decay:
        return cfg.learning_rate
    return max(cfg.learning_rate * 0.85 ** (epoch // 5), min(cfg.learning_rate, 1e-5))


def _beta(cfg: TrainConfig, epoch: int) -> float:
    try:
        growth = BETA_FACTOR ** epoch
    except OverflowError:  # from epoch 1,751 on: beta is then beta_cap, or 0 if beta0 is
        growth = np.inf if cfg.beta0 else 1.0
    return min(cfg.beta0 * growth, cfg.beta_cap)


def random_init_field(sample: SceneSample, rng) -> np.ndarray:
    """(K, M, 2) standard-normal init at the masked pixels."""
    return rng.standard_normal(sample.fields.shape)


def vote_keypoints(fields, mask, cfg: VotingConfig):
    """Each field of the (K, M, 2) masked stack voted over mask with cfg,
    the K votes sharing one ``SceneVote`` pass: the (K, 2) locations and
    (K,) votes, NaN and 0 where a keypoint failed, and one "keypoint i:
    reason" per failure. Only a ProxyVoteError is a failure."""
    locs = np.full((len(fields), 2), np.nan)
    votes = np.zeros(len(fields), dtype=int)
    failures = []
    scene = SceneVote(fields, mask, cfg)
    for ki, f in enumerate(fields):
        try:
            locs[ki], votes[ki] = vote_keypoint(f, mask, cfg, scene, ki)
        except ProxyVoteError as e:
            failures.append(f"keypoint {ki}: {e}")
    return locs, votes, failures


def keypoint_errors(locs, keypoints2) -> np.ndarray:
    """Distance of each voted location to its true keypoint; inf where voting failed."""
    errs = np.array([np.linalg.norm(d) for d in locs - keypoints2])
    return np.where(np.isnan(errs), np.inf, errs)


def _trace(rows, *errors):
    """The TrainTrace of the (l_vf, l_pv, mean_proxy_dist, beta) rows of
    iterations 0, 1, ..., and of the keypoint errors, if given."""
    return TrainTrace(np.arange(len(rows)), *np.array(rows, dtype=float).T, *errors)


def fit_field(sample: SceneSample, init: np.ndarray, cfg: TrainConfig):
    """Adam on the (2, K, 3) coefficients of an affine field per keypoint
    and component, from the least-squares projection of the (K, M, 2)
    init. Returns the fitted (K, M, 2) stack and the trace.
    """
    mask = sample.mask
    pts = xy = pixel_centers(mask)
    n_masked = max(len(pts), 1)
    if len(pts):  # an empty mask has no centre; its fit is the empty field
        std = pts.std(axis=0)  # a coordinate that all centres share is divided by 1
        xy = (pts - pts.mean(axis=0)) / np.where(std > 0, std, 1.0)
    phi = np.vstack([np.ones(len(pts)), xy.T])  # (3, M): 1, x̃, ỹ

    x0 = planar(np.asarray(init, dtype=float))  # (2, K, M)
    coef = np.linalg.lstsq(phi.T, x0.reshape(2 * x0.shape[1], len(pts)).T, rcond=None)[0]
    coef = coef.T.reshape(x0.shape[:2] + (3,))  # (2, K, 3)
    gt = planar(sample.fields)
    off = planar(sample.keypoints2[:, None, :] - pts)  # k - p

    m, v = np.zeros_like(coef), np.zeros_like(coef)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    rows = []  # l_vf, l_pv, mean_proxy_dist, beta per iteration

    # non-finite fields are tolerated here; the summed losses are checked
    # in every iteration and raise DivergenceError
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for it in range(cfg.iterations):
            epoch = it // cfg.iters_per_epoch
            beta = _beta(cfg, epoch)
            lr = _decayed_lr(cfg, epoch)

            est = coef @ phi  # (2, K, M)
            l_vf, g_vf = vf_terms(est, gt)
            pt = proxy_terms(est, off)
            if cfg.mode == "vf_only":
                grad = g_vf / n_masked
            else:
                grad = proxy_grad(est, off, pt) * beta
                if cfg.mode == "vf_plus_dpvl":
                    grad = g_vf + grad
                grad /= n_masked

            l_pv = pt.value
            rows.append((l_vf, l_pv, pt.mean_dist(), beta))
            if not (np.isfinite(l_vf) and np.isfinite(l_pv)):
                raise DivergenceError(f"non-finite loss at iteration {it}", trace=_trace(rows))

            # Adam step (bias-corrected) on the coefficients' gradient g·Φᵀ
            g = grad @ phi.T
            t = it + 1
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            coef -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + ADAM_EPS)

        fields = (coef @ phi).transpose(1, 2, 0)

    locs, _, _ = vote_keypoints(fields, mask, voting_config(cfg.rng_seed))
    return fields, _trace(rows, keypoint_errors(locs, sample.keypoints2))


# a run's trace file name; its groups are the run tag and the mode
TRACE_NAME = re.compile(r"trace_(scene\d+_(\w+?)_seed\d+)\.csv")


def run_experiment(scenes, modes, seeds, cfg_base: TrainConfig, out_dir, written=None):
    """Paired fits across modes and seeds over one or more scenes.

    Same seed means same random init across modes. Writes one trace CSV,
    one JSON summary and one fitted scene,
    ``fields/<mode>_seed<seed>/sample_<scene:03d>/``, per (scene, mode,
    seed) run plus a top-level summary; returns the summary dict. The
    path of each top-level entry of out_dir is appended to the list
    written, if given, once that entry is written.
    """
    written = [] if written is None else written
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for si, sample in enumerate(scenes):
        for seed in seeds:
            init = random_init_field(sample, substream(seed, "init"))
            for mode in modes:
                cfg = replace(cfg_base, mode=mode, rng_seed=seed)
                fields, trace = fit_field(sample, init, cfg)
                save_scene(scene_dir(os.path.join(out_dir, "fields", f"{mode}_seed{seed}"), si),
                           replace(sample, fields=fields))
                if not runs:  # the first run makes fields/
                    written.append(os.path.join(out_dir, "fields"))
                tag = f"scene{si:03d}_{mode}_seed{seed}"
                trace_csv = os.path.join(out_dir, f"trace_{tag}.csv")
                trace.to_csv(trace_csv)
                written.append(trace_csv)

                run = {
                    "scene": si,
                    "mode": mode,
                    "seed": int(seed),
                    "final_l_vf": float(trace.l_vf[-1]),
                    "final_l_pv": float(trace.l_pv[-1]),
                    "final_mean_proxy_dist": float(trace.mean_proxy_dist[-1]),
                    "keypoint_errors": [float(e) for e in trace.keypoint_errors],
                }
                summary_json = os.path.join(out_dir, f"summary_{tag}.json")
                write_json(summary_json, run)
                written.append(summary_json)
                runs.append(run)
    summary = {"runs": runs, "modes": list(modes), "seeds": [int(s) for s in seeds]}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    written.append(os.path.join(out_dir, "summary.json"))
    return summary

