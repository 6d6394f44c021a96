import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import dense, make_cube_scene
from oracles import oracle_fit_field
from proxyvote import trainer
from proxyvote.errors import DegenerateInputError, DivergenceError, ModelLoadError
from proxyvote.geometry import pixel_centers
from proxyvote.losses import dpvl, proxy_distances, vf_loss
from proxyvote.synth import load_scene
from proxyvote.trainer import (MODES, TrainConfig, TrainTrace, _beta, fit_field,
                               random_init_field, run_experiment, substream)
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


class TestSchedule:
    def test_epoch_zero(self):
        assert _beta(TrainConfig(), 0) == pytest.approx(1e-3)

    def test_epoch_one(self):
        assert _beta(TrainConfig(), 1) == pytest.approx(1.5e-3)

    def test_caps(self):
        assert _beta(TrainConfig(), 500) == pytest.approx(1e-2)

    def test_monotone(self):
        betas = [_beta(TrainConfig(), e) for e in range(60)]
        assert all(b >= a for a, b in zip(betas, betas[1:]))

    def test_past_the_float_range(self):
        # BETA_FACTOR ** epoch overflows a float from epoch 1,751 on
        for cfg in (TrainConfig(), TrainConfig(beta0=0.0), TrainConfig(beta0=1e-300)):
            assert _beta(cfg, 1750) == min(cfg.beta0 * 1.5 ** 1750, cfg.beta_cap)
        assert _beta(TrainConfig(), 1751) == _beta(TrainConfig(), 10 ** 6) == 1e-2
        assert _beta(TrainConfig(beta0=0.0), 1751) == 0.0

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            TrainConfig(beta0=1e-2, beta_cap=1e-3)


class TestTraceMatchesLosses:
    def test_first_iteration_matches_public_losses(self, scene):
        # the traced values before the first step are the (H, W) losses
        # summed over keypoints, in every mode, whichever gradients it uses;
        # an affine init is its own least-squares projection, up to rounding
        x, y = pixel_centers(scene.mask).T
        c = np.random.default_rng(0).normal(0.0, 1.0, (3, len(scene.keypoints2), 1, 2))
        init = c[0] + 0.1 * x[:, None] * c[1] + 0.1 * y[:, None] * c[2]  # (K, M, 2)
        field = dense(init, scene.mask)
        kps = range(len(init))
        want_vf = sum(vf_loss(field[i], scene.gt_fields[i], scene.mask).value for i in kps)
        want_pv = sum(dpvl(field[i], scene.mask, scene.keypoints2[i]).value for i in kps)
        dists = [proxy_distances(field[i], scene.mask, scene.keypoints2[i]) for i in kps]
        want_mpd = np.mean(np.concatenate([d[valid] for d, valid, _ in dists]))
        for mode in MODES:
            _, trace = fit_field(scene, init, short_cfg(iterations=1, mode=mode))
            assert trace.l_vf[0] == pytest.approx(want_vf, rel=1e-12)
            assert trace.l_pv[0] == pytest.approx(want_pv, rel=1e-12)
            assert trace.mean_proxy_dist[0] == pytest.approx(want_mpd, rel=1e-12)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestOracleParity:
    """fit_field matches the straightforward (K, M, 2) loop bit for bit."""

    def check(self, sample, init, cfg):
        """Compare fields and trace columns; returns whether the fit diverged."""
        want_fields, want, diverged = oracle_fit_field(
            dense(init, sample.mask), sample.mask, sample.gt_fields, sample.keypoints2, cfg)
        if diverged:
            with pytest.raises(DivergenceError) as exc:
                fit_field(sample, init, cfg)
            trace = exc.value.trace
        else:
            fields, trace = fit_field(sample, init, cfg)
            assert np.array_equal(bits(fields), bits(want_fields[:, sample.mask]))
        assert np.array_equal(trace.iters, want["iter"])
        for col in ("l_vf", "l_pv", "mean_proxy_dist", "beta"):
            assert np.array_equal(bits(getattr(trace, col)), bits(want[col])), col
        return diverged

    @pytest.mark.parametrize("mode", MODES)
    def test_cube_scene(self, scene, mode):
        # epochs of 50 iterations: beta grows five times and lr decays at 250
        init = random_init_field(scene, substream(7, "init"))
        assert not self.check(scene, init, short_cfg(iterations=300, iters_per_epoch=50,
                                                     mode=mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_degenerate_pixels(self, scene, mode):
        # a zero component projects to exact zeros, so at iteration 0:
        # keypoint 0 has a zero direction at every pixel (all invalid),
        # keypoint 1 a field through zero whose norms straddle EPS_NORM,
        # keypoint 2 sits on a row of pixel centres and has a zero y
        # component (cross exactly ±0 at the valid pixels of that row),
        # and keypoint 3 has a zero x component where the ground truth
        # holds 0.0 and -0.0 (residual exactly 0)
        pts = pixel_centers(scene.mask)
        xy = (pts - pts.mean(axis=0)) / pts.std(axis=0)
        init = random_init_field(scene, substream(8, "init"))
        init[0] = 0.0
        init[1] = 1e-8 * xy * [1.0, -1.5]
        init[2, :, 1] = 0.0
        init[3, :, 0] = 0.0
        norm = np.hypot(*init[1].T)
        assert (norm < 0.9e-8).any() and (norm > 1.1e-8).any()
        kps = scene.keypoints2.copy()
        row = pts[40, 1]
        kps[2, 1] = row
        on_row = pts[:, 1] == row
        assert on_row.sum() > 1 and (init[2, on_row, 0] != 0).all()
        gt = scene.fields.copy()
        gt[3, 30:33, 0] = 0.0
        gt[3, 33:36, 0] = -0.0
        sample = replace(scene, keypoints2=kps, fields=gt)
        assert not self.check(sample, init, short_cfg(iterations=40, mode=mode))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # voting the 1e300 field
    @pytest.mark.parametrize("mode", MODES)
    def test_divergence_partial_trace(self, scene, mode):
        # a finite 1e300 direction at one pixel projects to a field of 1e295
        # to 1e298 for its keypoint: the losses stay finite at iteration 0,
        # but the proxy gradient is inf / inf there, so fits using it
        # diverge one iteration later
        init = random_init_field(scene, substream(9, "init"))
        init[2, 5] = [1e300, -1e300]
        assert self.check(scene, init, short_cfg(iterations=5, mode=mode)) == (mode != "vf_only")
        init *= np.inf
        assert self.check(scene, init, short_cfg(iterations=5, mode=mode))


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
        init *= np.inf
        with pytest.raises(DivergenceError) as exc:
            fit_field(scene, init, short_cfg(iterations=10))
        assert len(exc.value.trace.iters) >= 1

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_mask_fits_the_empty_field(self, scene, mode):
        # a scene that occlusion emptied: no warning (the suite makes one an
        # error), zero losses and every keypoint failed
        empty = replace(scene, mask=np.zeros_like(scene.mask), fields=scene.fields[:, :0])
        init = random_init_field(empty, substream(0, "init"))
        fields, trace = fit_field(empty, init, short_cfg(iterations=3, mode=mode))
        assert fields.shape == (8, 0, 2)
        assert not (trace.l_vf.any() or trace.l_pv.any() or trace.mean_proxy_dist.any())
        assert np.array_equal(trace.keypoint_errors, np.full(8, np.inf))

    def test_lr_decay_flag(self, scene):
        from proxyvote.trainer import _decayed_lr

        cfg = short_cfg(lr_decay=True)
        lr = cfg.learning_rate
        assert _decayed_lr(cfg, 0) == pytest.approx(lr)
        assert _decayed_lr(cfg, 5) == pytest.approx(0.85 * lr)
        assert _decayed_lr(cfg, 500) == pytest.approx(1e-5)
        assert _decayed_lr(short_cfg(lr_decay=False), 500) == pytest.approx(lr)

    def test_lr_below_the_floor_is_kept(self):
        from proxyvote.trainer import _decayed_lr

        cfg = TrainConfig(learning_rate=1e-6)
        assert _decayed_lr(cfg, 0) == _decayed_lr(cfg, 500) == 1e-6

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
        assert a[0] == "iter,l_vf,l_pv,mean_proxy_dist,beta"
        assert a[1].split(",")[1] == b[1].split(",")[1]

    def test_fitted_fields_are_saved_as_scenes(self, scene, tmp_path):
        out = tmp_path / "exp"
        summary = run_experiment([scene], ["vf_only", "vf_plus_dpvl"], [1],
                                 short_cfg(iterations=50), out)
        init = random_init_field(scene, substream(1, "init"))
        for run in summary["runs"]:
            assert set(run) == {"scene", "mode", "seed", "final_l_vf", "final_l_pv",
                                "final_mean_proxy_dist", "keypoint_errors"}
            fields, _ = fit_field(scene, init, short_cfg(iterations=50, mode=run["mode"],
                                                         rng_seed=1))
            saved = load_scene(out / "fields" / f"{run['mode']}_seed1" / "sample_000")
            assert np.array_equal(bits(saved.fields), bits(fields))
            assert np.array_equal(saved.mask, scene.mask)
            assert np.array_equal(saved.keypoints2, scene.keypoints2)
            assert np.array_equal(saved.pose.rotation, scene.pose.rotation)

    def test_trace_csv_roundtrip(self, scene, tmp_path):
        out = tmp_path / "exp"
        run_experiment([scene], ["vf_only"], [0], short_cfg(iterations=50), out)
        data = np.genfromtxt(out / "trace_scene000_vf_only_seed0.csv",
                             delimiter=",", skip_header=1)
        assert data.shape == (50, 5)
        assert np.array_equal(data[:, 0], np.arange(50))
        assert np.all(np.isfinite(data))


class TestTraceCsv:
    def test_bytes_match_the_per_value_format(self, tmp_path):
        vals = np.array([-0.0, 1e-300, np.inf, np.nan, -np.inf, 0.1, 1.0, 5e-324,
                         1.7976931348623157e308, -2.5, 1e16, 123456.789])
        trace = TrainTrace(np.arange(len(vals)), vals, vals[::-1].copy(), np.roll(vals, 3),
                           np.roll(vals, 7))
        trace.to_csv(tmp_path / "trace.csv")
        cols = (trace.l_vf, trace.l_pv, trace.mean_proxy_dist, trace.beta)
        want = ["iter,l_vf,l_pv,mean_proxy_dist,beta"]
        want += [",".join([str(int(it))] + [repr(float(c[i])) for c in cols])
                 for i, it in enumerate(trace.iters)]
        assert (tmp_path / "trace.csv").read_bytes() == ("\n".join(want) + "\n").encode()

    def test_read_gives_back_what_to_csv_wrote_bit_for_bit(self, tmp_path):
        vals = np.array([-0.0, 1e-300, 0.1, 1.0, 5e-324, 1.7976931348623157e308, -2.5, 1e16,
                         123456.789])
        trace = TrainTrace(np.arange(len(vals)), vals, vals[::-1].copy(), np.roll(vals, 3),
                           np.roll(vals, 7))
        trace.to_csv(tmp_path / "trace.csv")
        back = TrainTrace.read(tmp_path / "trace.csv")
        assert np.array_equal(back.iters, trace.iters)
        for name in ("l_vf", "l_pv", "mean_proxy_dist", "beta"):
            assert np.array_equal(bits(getattr(back, name)), bits(getattr(trace, name)))

    def test_read_skips_the_alpha_column_of_older_traces(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,l_vf,l_pv,mean_proxy_dist,alpha,beta\n"
                        "0,1.5,0.25,3.0,1.0,0.001\n1,1.25,0.5,2.0,1.0,0.002\n")
        back = TrainTrace.read(path)
        assert [back.iters.tolist(), back.l_vf.tolist(), back.l_pv.tolist(),
                back.mean_proxy_dist.tolist(), back.beta.tolist()] == [
            [0, 1], [1.5, 1.25], [0.25, 0.5], [3.0, 2.0], [0.001, 0.002]]

    def test_read_names_the_file_lacking_a_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,l_vf,l_pv,beta\n0,1.5,0.25,0.001\n")
        with pytest.raises(ModelLoadError) as e:
            TrainTrace.read(path)
        assert str(e.value) == f"{path}: no mean_proxy_dist column"


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
            loc, _ = vote_keypoint(dense(fields, scene.mask)[ki], scene.mask, vcfg)
            assert trace.keypoint_errors[ki] == float(np.linalg.norm(loc - scene.keypoints2[ki]))

    def test_each_fitted_field_is_voted_once(self, scene, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return vote_keypoint(*args, **kwargs)

        monkeypatch.setattr(trainer, "vote_keypoint", counting)
        summary = run_experiment([scene], ["vf_only"], [0], short_cfg(iterations=300),
                                 tmp_path / "exp")
        assert len(summary["runs"][0]["keypoint_errors"]) == len(scene.keypoints2)
        assert len(calls) == len(scene.keypoints2)

    def test_vote_failure_is_a_failed_keypoint(self, scene, monkeypatch):
        monkeypatch.setattr(trainer, "vote_keypoint", raising(DegenerateInputError("parallel")))
        init = random_init_field(scene, substream(0, "init"))
        _, trace = fit_field(scene, init, short_cfg(iterations=5))
        assert np.all(np.isinf(trace.keypoint_errors))

    def test_vote_bug_propagates(self, scene, monkeypatch):
        # a programming error must not be scored as an inf keypoint error
        monkeypatch.setattr(trainer, "vote_keypoint", raising(TypeError("bug")))
        init = random_init_field(scene, substream(0, "init"))
        with pytest.raises(TypeError):
            fit_field(scene, init, short_cfg(iterations=5))
