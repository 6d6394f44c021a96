import json

import numpy as np
import pytest

from helpers import make_cube_scene
from proxyvote import trainer
from proxyvote.errors import (DegenerateConfigurationError, DivergenceError,
                              NoValidHypothesisError)
from proxyvote.losses import dpvl, proxy_distances, vf_loss
from proxyvote.trainer import (MODES, TrainConfig, fit_field, random_init_field,
                               run_experiment, substream)
from proxyvote.voting import VotingConfig, vote_keypoint


@pytest.fixture(scope="module")
def scene():
    _, _, s = make_cube_scene(seed=3)
    return s


def short_cfg(**kw):
    base = dict(iterations=200, rng_seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestSubstream:
    def test_named_streams_differ(self):
        a = substream(7, "init").integers(2 ** 31, size=4)
        b = substream(7, "noise").integers(2 ** 31, size=4)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = substream(3, "voting").integers(2 ** 31, size=4)
        b = substream(3, "voting").integers(2 ** 31, size=4)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = substream(1, "init").integers(2 ** 31, size=4)
        b = substream(2, "init").integers(2 ** 31, size=4)
        assert not np.array_equal(a, b)

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            substream(0, "nope")


class TestTraceMatchesLosses:
    def test_first_iteration_matches_public_losses(self, scene):
        # the traced values before the first step are the (H, W) losses
        # summed over keypoints, in every mode, whichever gradients it uses
        init = random_init_field(scene, substream(0, "init"))
        kps = range(len(init))
        want_vf = sum(vf_loss(init[i], scene.gt_fields[i], scene.mask).value for i in kps)
        want_pv = sum(dpvl(init[i], scene.mask, scene.keypoints2[i]).value for i in kps)
        dists = [proxy_distances(init[i], scene.mask, scene.keypoints2[i]) for i in kps]
        want_mpd = np.mean(np.concatenate([d[valid] for d, valid, _ in dists]))
        for mode in MODES:
            _, trace = fit_field(scene, init, short_cfg(iterations=1, mode=mode))
            assert trace.l_vf[0] == pytest.approx(want_vf, rel=1e-12)
            assert trace.l_pv[0] == pytest.approx(want_pv, rel=1e-12)
            assert trace.mean_proxy_dist[0] == pytest.approx(want_mpd, rel=1e-12)


class TestFitField:
    def test_loss_decreases(self, scene):
        init = random_init_field(scene, substream(0, "init"))
        _, trace = fit_field(scene, init, short_cfg(iterations=1000, mode="vf_only"))
        assert trace.l_vf[-1] < 0.3 * trace.l_vf[0]
        # broadly downhill: the last tenth sits below the first tenth
        assert trace.l_vf[-100:].mean() < trace.l_vf[:100].mean()

    def test_trace_shapes_and_schedule(self, scene):
        init = random_init_field(scene, substream(1, "init"))
        cfg = short_cfg(iterations=250, mode="vf_plus_dpvl")
        _, trace = fit_field(scene, init, cfg)
        assert len(trace.iters) == 250
        # epoch boundaries every iters_per_epoch iterations
        assert trace.beta[0] == pytest.approx(1e-3)
        assert trace.beta[100] == pytest.approx(1.5e-3)
        assert trace.beta[200] == pytest.approx(2.25e-3)
        assert np.all(np.diff(trace.alpha) >= 0)

    def test_untouched_outside_mask(self, scene):
        init = random_init_field(scene, substream(2, "init"))
        fields, _ = fit_field(scene, init, short_cfg(iterations=50))
        off = ~scene.mask
        assert np.array_equal(fields[:, off, :], init[:, off, :])

    def test_deterministic(self, scene):
        init = random_init_field(scene, substream(3, "init"))
        cfg = short_cfg(iterations=100)
        fa, ta = fit_field(scene, init, cfg)
        fb, tb = fit_field(scene, init, cfg)
        assert np.array_equal(fa, fb)
        assert np.array_equal(ta.l_vf, tb.l_vf)
        assert np.array_equal(ta.keypoint_errors, tb.keypoint_errors)

    def test_keypoint_errors_shrink_with_training(self, scene):
        init = random_init_field(scene, substream(4, "init"))
        _, short = fit_field(scene, init, short_cfg(iterations=20))
        _, longer = fit_field(scene, init, short_cfg(iterations=800))
        assert np.median(longer.keypoint_errors) < np.median(short.keypoint_errors)
        assert np.median(longer.keypoint_errors) < 1.0

    def test_divergence_raises_with_partial_trace(self, scene):
        init = random_init_field(scene, substream(5, "init"))
        init[:, scene.mask, :] *= np.inf
        with pytest.raises(DivergenceError) as exc:
            fit_field(scene, init, short_cfg(iterations=10))
        assert len(exc.value.trace.iters) >= 1

    def test_lr_decay_flag(self, scene):
        from proxyvote.trainer import _decayed_lr

        cfg = short_cfg(lr_decay=True)
        assert _decayed_lr(cfg, 0) == pytest.approx(1e-3)
        assert _decayed_lr(cfg, 5) == pytest.approx(0.85e-3)
        assert _decayed_lr(cfg, 500) == pytest.approx(1e-5)
        assert _decayed_lr(short_cfg(lr_decay=False), 500) == pytest.approx(1e-3)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(mode="bogus")
        assert set(MODES) == {"vf_only", "vf_plus_dpvl", "dpvl_only"}


class TestRunExperiment:
    def test_outputs_and_pairing(self, scene, tmp_path):
        out = tmp_path / "exp"
        summary = run_experiment([scene], ["vf_only", "vf_plus_dpvl"], [0],
                                 short_cfg(iterations=300), out)
        assert len(summary["runs"]) == 2
        for mode in ("vf_only", "vf_plus_dpvl"):
            assert (out / f"trace_scene000_{mode}_seed0.csv").exists()
            assert (out / f"summary_scene000_{mode}_seed0.json").exists()
        top = json.loads((out / "summary.json").read_text())
        assert top["modes"] == ["vf_only", "vf_plus_dpvl"]

        # paired init: both modes start from the same random field, so the
        # regression loss at iteration 0 is identical
        a = (out / "trace_scene000_vf_only_seed0.csv").read_text().splitlines()
        b = (out / "trace_scene000_vf_plus_dpvl_seed0.csv").read_text().splitlines()
        assert a[0] == "iter,l_vf,l_pv,mean_proxy_dist,alpha,beta"
        assert a[1].split(",")[1] == b[1].split(",")[1]

    def test_downstream_pose_metrics_present(self, scene, tmp_path):
        out = tmp_path / "exp"
        summary = run_experiment([scene], ["vf_only"], [1],
                                 short_cfg(iterations=800), out, diameter=0.1 * 3 ** 0.5)
        run = summary["runs"][0]
        assert "add" in run and "proj2d" in run
        assert run["add"] >= 0.0

    def test_trace_csv_roundtrip(self, scene, tmp_path):
        out = tmp_path / "exp"
        run_experiment([scene], ["vf_only"], [0], short_cfg(iterations=50), out)
        data = np.genfromtxt(out / "trace_scene000_vf_only_seed0.csv",
                             delimiter=",", skip_header=1)
        assert data.shape == (50, 6)
        assert np.array_equal(data[:, 0], np.arange(50))
        assert np.all(np.isfinite(data))


def raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


class TestVotedKeypoints:
    def test_locations_are_the_voted_points(self, scene):
        init = random_init_field(scene, substream(6, "init"))
        fields, trace = fit_field(scene, init, short_cfg(iterations=100, rng_seed=6))
        vcfg = VotingConfig(rng_seed=int(substream(6, "voting").integers(2 ** 63)))
        for ki in range(len(fields)):
            loc, _ = vote_keypoint(fields[ki], scene.mask, vcfg)
            assert np.array_equal(trace.keypoint_locations[ki], loc)
            assert trace.keypoint_errors[ki] == float(np.linalg.norm(loc - scene.keypoints2[ki]))

    def test_each_fitted_field_is_voted_once(self, scene, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return vote_keypoint(*args, **kwargs)

        monkeypatch.setattr(trainer, "vote_keypoint", counting)
        summary = run_experiment([scene], ["vf_only"], [0], short_cfg(iterations=300),
                                 tmp_path / "exp")
        assert "add" in summary["runs"][0]
        assert len(calls) == len(scene.keypoints2)

    def test_vote_failure_is_a_failed_keypoint(self, scene, monkeypatch):
        monkeypatch.setattr(trainer, "vote_keypoint", raising(NoValidHypothesisError("parallel")))
        init = random_init_field(scene, substream(0, "init"))
        _, trace = fit_field(scene, init, short_cfg(iterations=5))
        assert np.all(np.isinf(trace.keypoint_errors))
        assert np.all(np.isnan(trace.keypoint_locations))

    def test_vote_bug_propagates(self, scene, monkeypatch):
        # a programming error must not be scored as an inf keypoint error
        monkeypatch.setattr(trainer, "vote_keypoint", raising(TypeError("bug")))
        init = random_init_field(scene, substream(0, "init"))
        with pytest.raises(TypeError):
            fit_field(scene, init, short_cfg(iterations=5))

    def test_pose_failure_is_recorded(self, scene, tmp_path, monkeypatch):
        monkeypatch.setattr(trainer, "solve_epnp",
                            raising(DegenerateConfigurationError("rank-deficient")))
        summary = run_experiment([scene], ["vf_only"], [0], short_cfg(iterations=50),
                                 tmp_path / "exp")
        assert summary["runs"][0]["pose_error"] == "rank-deficient"

    def test_pose_bug_propagates(self, scene, tmp_path, monkeypatch):
        monkeypatch.setattr(trainer, "solve_epnp", raising(TypeError("bug")))
        with pytest.raises(TypeError):
            run_experiment([scene], ["vf_only"], [0], short_cfg(iterations=50), tmp_path / "exp")
