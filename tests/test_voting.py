import warnings

import numpy as np
import pytest

from helpers import disc_mask, exact_field, noisy_scene, rotate_field
from oracles import (oracle_all_pairs_vote, oracle_inlier_counts, oracle_inlier_table,
                     oracle_squared_vote, oracle_vote)
from proxyvote import voting
from proxyvote.errors import DegenerateInputError
from proxyvote.geometry import EPS_PARALLEL, pixel_centers
from proxyvote.trainer import vote_keypoints
from proxyvote.voting import (SceneVote, VotingConfig, _exact_counts, _hypotheses,
                              _ill_conditioned, _inliers, _loose_counts, _loose_operands,
                              _refine_location, _stride, _units, _voters, vote_keypoint)

K = np.array([20.3, 41.7])


def scene_pixels(field, mask):
    """Centres of the masked pixels, (M, 2), and the (1, M, 2) masked stack
    of one dense field."""
    return pixel_centers(mask), np.asarray(field, dtype=float)[mask][None]


def sample_hypotheses(field, mask, cfg):
    """The valid hypotheses of one field, in draw order."""
    pts, dirs = scene_pixels(field, mask)
    return _hypotheses(pts, _units(dirs), cfg)[0]


def field_voters(field, mask, threshold=0.99):
    """The voter columns of one field (see ``voting._voters``)."""
    pts, dirs = scene_pixels(field, mask)
    return _voters(pts, _units(dirs[0]), threshold)


@pytest.fixture(scope="module")
def disc():
    mask = disc_mask(64, 64, center=(32, 32), radius=20)
    return mask, exact_field(mask, K)


class TestGenerateHypotheses:
    def test_exact_field_hits_keypoint(self, disc):
        mask, field = disc
        hyps = sample_hypotheses(field, mask, VotingConfig(num_samples=64, rng_seed=1))
        assert len(hyps) > 0
        for h in hyps:
            assert np.linalg.norm(h - K) < 1e-9

    def test_parallel_field_empty(self):
        mask = disc_mask(16, 16, center=(8, 8), radius=5)
        field = np.zeros((16, 16, 2))
        field[mask] = [1.0, 0.0]
        assert sample_hypotheses(field, mask, VotingConfig(rng_seed=0)).shape == (0, 2)

    def test_insufficient_support(self):
        mask = np.zeros((4, 4), bool)
        mask[0, 0] = True
        with pytest.raises(DegenerateInputError, match="need >= 2 masked pixels, got 1"):
            vote_keypoint(np.zeros((4, 4, 2)), mask, VotingConfig())

    def test_deterministic_per_seed(self, disc):
        mask, field = disc
        a = sample_hypotheses(field, mask, VotingConfig(rng_seed=9))
        b = sample_hypotheses(field, mask, VotingConfig(rng_seed=9))
        assert len(a) == len(b)
        for ha, hb in zip(a, b):
            assert np.array_equal(ha, hb)

    def test_noisy_scatter_matches_all_pairs_oracle(self):
        mask = disc_mask(24, 24, center=(12, 12), radius=8)
        rng = np.random.default_rng(12)
        field = rotate_field(exact_field(mask, K), mask, 5.0, rng)
        stats = oracle_all_pairs_vote(field, mask, K)
        hyps = sample_hypotheses(field, mask, VotingConfig(num_samples=512, rng_seed=4))
        med = np.median([np.linalg.norm(h - K) for h in hyps])
        # sampled subset of the exhaustive hypothesis population
        assert med == pytest.approx(stats.median_distance, rel=0.5, abs=2.0)


def pair_intersections(p1, v1, p2, v2):
    """Hypotheses of a two-pixel input: its pair, sampled in either order."""
    pts = np.array([p1, p2], dtype=float)
    dirs = np.array([v1, v2], dtype=float)
    return _hypotheses(pts, _units(dirs[None]), VotingConfig(num_samples=16, rng_seed=0))[0]


class TestRayIntersection:
    def test_axis_crossing(self):
        x = pair_intersections((0, 0), (1, 0), (4, -2), (0, 1))
        assert len(x) > 0 and np.allclose(x, [4, 0])

    def test_parallel_returns_none(self):
        assert pair_intersections((0, 0), (1, 1), (3, 0), (2, 2)).shape == (0, 2)

    @pytest.mark.parametrize("v1, v2", [((-1, 0), (0, 1)), ((1, 0), (0, -1)),
                                        ((-1, 0), (0, -1))])
    def test_rays_meeting_behind_a_pixel_return_none(self, v1, v2):
        # the lines through (0, 0) and (4, -2) cross at (4, 0), behind the
        # first pixel, the second or both
        assert pair_intersections((0, 0), v1, (4, -2), v2).shape == (0, 2)

    def test_directions_toward_a_point_meet_there(self):
        k = np.array([10.0, 7.0])
        p1, p2 = np.array([1.0, 2.0]), np.array([8.0, 1.0])
        v1, v2 = ((k - p) / np.linalg.norm(k - p) for p in (p1, p2))
        x = pair_intersections(p1, v1, p2, v2)
        assert len(x) > 0 and np.allclose(x, k, atol=1e-9)

    def test_lies_on_both_lines(self):
        rng = np.random.default_rng(3)
        met = 0
        for _ in range(100):
            p1, p2 = rng.normal(0, 10, (2, 2))
            v1, v2 = rng.normal(0, 1, (2, 2))
            for x in pair_intersections(p1, v1, p2, v2):
                met += 1
                for p, v in ((p1, v1), (p2, v2)):
                    cr = (x - p)[0] * v[1] - (x - p)[1] * v[0]
                    assert abs(cr) < 1e-6 * max(np.linalg.norm(x - p), 1.0)
        assert met > 0

    def test_hypotheses_lie_within_d_over_eps_parallel_of_their_pixels(self):
        # near-parallel unit rays, |u1 x u2| just above EPS_PARALLEL, with u2
        # about perpendicular to d: |t1| comes near its bound |d| / EPS_PARALLEL
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(20):
            rows, cols = rng.integers(0, 4096, (2, 2))
            pts = np.column_stack([cols + 0.5, rows + 0.5])
            d = pts[1] - pts[0]
            base = np.arctan2(d[0], -d[1]) + rng.normal(0.0, 1e-3, 64)
            turn = np.arcsin(EPS_PARALLEL) * rng.uniform(1.0 + 1e-9, 1.01, 64)
            angles = np.stack([base + rng.choice([-1.0, 1.0], 64) * turn, base], axis=1)
            units = _units(np.stack([np.cos(angles), np.sin(angles)], axis=-1))
            hyps = _hypotheses(pts, units, VotingConfig(num_samples=8, rng_seed=0))
            bound = np.hypot(*d) / EPS_PARALLEL
            for h in np.concatenate(hyps):
                dist = np.hypot(*(h - pts).T).max()
                assert dist <= bound * (1.0 + 1e-9)
                worst = max(worst, dist / bound)
        assert worst > 0.9


def row_count(h, field, mask, threshold):
    """The package's float64 inlier test of one hypothesis h on every voter."""
    voters = field_voters(field, mask, threshold)
    return int(np.count_nonzero(_inliers(float(h[0]), float(h[1]), voters)))


def recount(q, field, mask, cos_thr=0.99):
    """Per-pixel reference implementation of the inlier rule."""
    ii, jj = np.nonzero(mask)
    total = 0
    for i, j in zip(ii, jj):
        p = np.array([j + 0.5, i + 0.5])
        v = field[i, j]
        dist = np.linalg.norm(q - p)
        if dist < 0.5 or np.linalg.norm(v) < 1e-8:
            continue
        if np.dot(v, q - p) / (dist * np.linalg.norm(v)) >= cos_thr:
            total += 1
    return total


class TestCountInliers:
    def test_exact_field_all_eligible_vote(self, disc):
        mask, field = disc
        got = row_count(K, field, mask, 0.99)
        assert got == recount(K, field, mask)
        # every masked pixel except those within 0.5 px of K votes
        assert got >= np.count_nonzero(mask) - 2

    def test_opposite_point_loses_badly(self, disc):
        mask, field = disc
        q = np.array([32.0, -500.0])
        got = row_count(q, field, mask, 0.99)
        assert got == recount(q, field, mask)
        assert got < 0.1 * row_count(K, field, mask, 0.99)

    def test_half_flipped_matches_per_pixel_oracle(self):
        mask = disc_mask(32, 32, center=(16, 16), radius=10)
        field = exact_field(mask, K)
        rng = np.random.default_rng(5)
        flip = rng.random((32, 32)) < 0.5
        field = np.where(flip[..., None], -field, field)
        got = row_count(K, field, mask, 0.99)
        # direct per-pixel recount
        ii, jj = np.nonzero(mask)
        want = 0
        for i, j in zip(ii, jj):
            p = np.array([j + 0.5, i + 0.5])
            v = field[i, j]
            dist = np.linalg.norm(K - p)
            if dist < 0.5 or np.linalg.norm(v) < 1e-8:
                continue
            if np.dot(v, K - p) / (dist * np.linalg.norm(v)) >= 0.99:
                want += 1
        assert got == want
        assert abs(got - np.count_nonzero(mask) / 2) < 0.2 * np.count_nonzero(mask)


def parity_field(kind, mask, rng):
    """Noisy, half-flipped or partly zero direction fields of mixed magnitude."""
    field = rotate_field(exact_field(mask, K), mask, 5.0, rng)
    field = field * rng.uniform(0.1, 3.0, mask.shape)[..., None]
    if kind == "half_flipped":
        field = np.where((rng.random(mask.shape) < 0.5)[..., None], -field, field)
    elif kind == "zero_dirs":
        # exact zeros, and lengths just under and just over EPS_NORM (1e-8)
        u = np.where(mask, rng.random(mask.shape), 1.0)
        field[u < 0.15] = 0.0
        for lo, length in ((0.15, 5e-9), (0.2, 2e-8)):
            sel = (u >= lo) & (u < lo + 0.05)
            field[sel] *= length / np.linalg.norm(field[sel], axis=-1, keepdims=True)
    return field


def package_counts(hyps, field, mask, thr=0.99):
    """Unpruned counts from the exact counter: every hypothesis on every voter."""
    return _exact_counts(hyps, field_voters(field, mask, thr))


def raw_vote(field, mask, cfg):
    """vote_keypoint's location before refinement, and its votes."""
    return SceneVote(scene_pixels(field, mask)[1], mask, cfg)._winner(0)[:2]


class TestInlierParity:
    """The blocked squared-form counts equal the cosine rule exactly."""

    @pytest.mark.parametrize("kind", ["noisy", "half_flipped", "zero_dirs"])
    @pytest.mark.parametrize("n_hyp", [1, 63, 64, 65, 513])
    def test_counts_match_cosine_oracle(self, kind, n_hyp):
        mask = disc_mask(48, 48, center=(24, 24), radius=9)
        rng = np.random.default_rng(n_hyp)
        field = parity_field(kind, mask, rng)
        # near the keypoint, where votes are decided, and anywhere on the image
        hyps = np.concatenate([K + rng.normal(0.0, 3.0, (n_hyp, 2))[: (n_hyp + 1) // 2],
                               rng.uniform(-10.0, 58.0, (n_hyp // 2, 2))])
        hyps[0] = K
        got = package_counts(hyps, field, mask)
        assert np.array_equal(got, oracle_inlier_counts(hyps, field, mask))
        for i in sorted({0, 62, 63, 64, n_hyp - 1} & set(range(n_hyp))):
            assert got[i] == recount(hyps[i], field, mask)

    def test_sampled_hypotheses_match_cosine_oracle(self):
        mask = disc_mask(48, 48, center=(24, 24), radius=9)
        field = parity_field("half_flipped", mask, np.random.default_rng(8))
        hyps = sample_hypotheses(field, mask, VotingConfig(rng_seed=8))
        assert len(hyps) > 2 * 64
        assert np.array_equal(package_counts(hyps, field, mask),
                              oracle_inlier_counts(hyps, field, mask))

    def test_hypothesis_half_pixel_from_centre(self):
        # one row of pixels all pointing +x; h sits exactly 0.5 px right of
        # pixel (2, 5), so pixels 0..5 of that row vote and pixel 5 is on
        # the distance cut-off
        mask = np.zeros((5, 10), bool)
        mask[2, :] = True
        field = np.zeros((5, 10, 2))
        field[mask] = [1.0, 0.0]
        h = np.array([5.5 + 0.5, 2.5])
        inside = np.array([5.5 + 0.5 - 1e-9, 2.5])
        hyps = np.array([h, inside, [5.5, 2.5 + 0.5], [5.5, 2.5]])
        got = package_counts(hyps, field, mask)
        assert np.array_equal(got, oracle_inlier_counts(hyps, field, mask))
        assert got[0] == 6 and got[1] == 5
        assert row_count(h, field, mask, 0.99) == recount(h, field, mask) == 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_winner_votes_are_its_inlier_count(self, seed):
        mask = disc_mask(48, 48, center=(24, 24), radius=12)
        field = parity_field("half_flipped", mask, np.random.default_rng(seed))
        raw, votes = raw_vote(field, mask, VotingConfig(rng_seed=seed))
        assert votes == row_count(raw, field, mask, 0.99)
        _, refined_votes = vote_keypoint(field, mask, VotingConfig(rng_seed=seed))
        assert refined_votes == votes


class TestStageTwoBlocks:
    """Stage 2 counts in blocks within its cell budget, with the same counts
    whatever the budget."""

    @pytest.mark.parametrize("per_block", [1, 64, "all"])
    def test_counts_do_not_depend_on_the_budget(self, monkeypatch, per_block):
        mask = disc_mask(48, 48, center=(24, 24), radius=9)
        field = parity_field("half_flipped", mask, np.random.default_rng(8))
        hyps = sample_hypotheses(field, mask, VotingConfig(rng_seed=8))
        voters = field_voters(field, mask)
        assert len(hyps) % 64 != 0  # the last block of 64 is a short one
        per_block = len(hyps) if per_block == "all" else per_block
        monkeypatch.setattr(voting, "_STAGE2_CELLS", per_block * len(voters[0]))
        assert np.array_equal(_exact_counts(hyps, voters),
                              oracle_inlier_counts(hyps, field, mask))

    def test_large_mask_tables_stay_within_the_budget(self, monkeypatch):
        # over 20,000 voters: the default budget holds less than one
        # hypothesis, and 2.5 voter rows hold two
        mask = disc_mask(180, 180, center=(90, 90), radius=85)
        field = rotate_field(exact_field(mask, K + 60), mask, 5.0, np.random.default_rng(3))
        m = np.count_nonzero(mask)
        assert m > 20_000
        inliers, votes = voting._inliers, []
        for budget in (voting._STAGE2_CELLS, int(2.5 * m)):
            monkeypatch.setattr(voting, "_STAGE2_CELLS", budget)
            sizes = []

            def inliers_spy(*args):
                ok = inliers(*args)
                sizes.append(ok.size)
                return ok

            monkeypatch.setattr(voting, "_inliers", inliers_spy)
            votes.append(vote_keypoint(field, mask, VotingConfig(rng_seed=3)))
            assert len(sizes) > 2 and max(sizes) <= max(budget, m)
        assert votes[0][1] == votes[1][1] > 0.5 * m
        assert np.array_equal(bits(votes[0][0]), bits(votes[1][0]))


def bits(loc):
    return np.asarray(loc, dtype=float).view(np.uint64)


def assert_matches_dense_vote(field, mask, cfg):
    """The raw winner equals the unpruned oracle bit for bit."""
    loc, votes = raw_vote(field, mask, cfg)
    want_loc, want_votes = oracle_vote(sample_hypotheses(field, mask, cfg), field, mask)
    assert votes == want_votes
    assert np.array_equal(bits(loc), bits(want_loc))
    return loc, votes


K_LEFT, K_RIGHT = np.array([20.3, 13.7]), np.array([43.6, 14.2])


def two_target_field(b_chunks):
    """A 16 x 8 block of exact directions: voters whose row-major index mod 16
    is in b_chunks point right at K_RIGHT, the rest left at K_LEFT.

    With 16 chunks of strided voters (up to 512 hypotheses), chunk c holds
    exactly the voters with index mod 16 == c, which is their column in the
    block, so b_chunks decides which chunks vote for which side.
    """
    mask = np.zeros((28, 64), bool)
    mask[10:18, 24:40] = True
    column = np.arange(64)[None, :].repeat(28, 0) - 24
    to_right = np.isin(column, b_chunks) & mask
    field = np.where(to_right[..., None], exact_field(mask, K_RIGHT), exact_field(mask, K_LEFT))
    return mask, field, to_right


class TestPrunedVoteParity:
    """Pruned voting picks the dense vote's winner, count and tie-break."""

    @pytest.mark.parametrize("kind", ["noisy", "half_flipped", "zero_dirs"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_vote(self, kind, seed):
        mask = disc_mask(48, 48, center=(24, 24), radius=12)
        field = parity_field(kind, mask, np.random.default_rng(100 + seed))
        assert_matches_dense_vote(field, mask, VotingConfig(rng_seed=seed))

    def test_more_hypotheses_than_a_table_holds(self):
        # 1,500 samples: more chunks than the default 16, each with fewer voters
        mask = disc_mask(48, 48, center=(24, 24), radius=12)
        field = parity_field("half_flipped", mask, np.random.default_rng(7))
        assert _stride(1500, np.count_nonzero(mask)) > 16
        assert_matches_dense_vote(field, mask, VotingConfig(num_samples=1500, rng_seed=7))

    @pytest.mark.parametrize("n_px", range(2, 16))
    def test_fewer_voters_than_chunks(self, n_px):
        rng = np.random.default_rng(n_px)
        mask = np.zeros((16, 16), bool)
        mask.flat[rng.choice(mask.size, n_px, replace=False)] = True
        field = rotate_field(exact_field(mask, K / 4), mask, 20.0, rng)
        for cfg in (VotingConfig(rng_seed=n_px), VotingConfig(num_samples=16, rng_seed=n_px)):
            if n_px == 2:  # the two rays point apart: no forward hypothesis
                assert oracle_squared_vote(field, mask, cfg.num_samples, seed=n_px) is None
                with pytest.raises(DegenerateInputError, match="met behind a pixel"):
                    raw_vote(field, mask, cfg)
                continue
            assert_matches_dense_vote(field, mask, cfg)

    def test_exact_ties_keep_the_dense_tie_break(self):
        # half the chunks point left, half right: the left and right hypotheses
        # tie at 64 votes, and the left ones, first in (x, y) order, can only
        # just reach the bound set by a right-hand chunk-0 leader
        mask, field, to_right = two_target_field(range(8))
        cfg = VotingConfig(rng_seed=5)
        hyps = sample_hypotheses(field, mask, cfg)
        counts = oracle_inlier_counts(hyps, field, mask)
        assert counts.max() == np.count_nonzero(to_right) == 64
        near_left = np.linalg.norm(hyps - K_LEFT, axis=1) < 1e-6
        near_right = np.linalg.norm(hyps - K_RIGHT, axis=1) < 1e-6
        assert np.all(counts[near_left | near_right] == 64)
        assert np.count_nonzero(near_left) > 1 and np.count_nonzero(near_right) > 1
        loc, votes = assert_matches_dense_vote(field, mask, cfg)
        assert loc[0] < 24.0  # left of the block

    def test_chunk0_leader_is_not_the_winner(self):
        # chunks 0 to 3 point right: the chunk-0 leader is a right-hand
        # hypothesis with 32 votes, the winner a left-hand one with 96
        mask, field, _ = two_target_field(range(4))
        cfg = VotingConfig(rng_seed=6)
        hyps = sample_hypotheses(field, mask, cfg)
        assert len(hyps) <= 512  # 16 chunks
        table = oracle_inlier_table(hyps, field, mask)
        leader = np.argmax(np.count_nonzero(table[:, ::16], axis=1))
        assert np.count_nonzero(table[leader]) == 32
        loc, votes = assert_matches_dense_vote(field, mask, cfg)
        assert votes == 96 and loc[0] < 24.0

    @pytest.mark.parametrize("kind", ["noisy", "zero_dirs"])
    @pytest.mark.parametrize("radius", [2, 12])
    def test_refinement_sums_inliers_in_row_major_order(self, kind, radius):
        mask = disc_mask(48, 48, center=(24, 24), radius=radius)
        field = parity_field(kind, mask, np.random.default_rng(radius))
        raw, votes = raw_vote(field, mask, VotingConfig(rng_seed=3))
        loc, refined_votes = vote_keypoint(field, mask, VotingConfig(rng_seed=3))
        voters = field_voters(field, mask)
        eligible = np.hypot(*field[mask].T) >= 1e-8
        row = oracle_inlier_table(raw, field, mask)[0][eligible]
        want = _refine_location(raw, voters, row)
        assert refined_votes == votes == np.count_nonzero(row)
        assert np.array_equal(bits(loc), bits(want))


def adversarial_field(layout, rng):
    """A noisy field on a disc of about 600 px whose directions have lengths
    from 1e-8 to 1e130, mixed, with about 10 % zeros and 10 % flipped.

    layout "wide" and "tall" put the disc in the far corner of a 3,072 px
    wide or tall image, "small" in a 64 x 64 one.
    """
    height, width = {"wide": (160, 3072), "tall": (3072, 160), "small": (64, 64)}[layout]
    centre = np.array([width - 20.0, height - 20.0])
    mask = disc_mask(height, width, center=centre, radius=14)
    field = rotate_field(exact_field(mask, centre + rng.normal(0.0, 5.0, 2)), mask, 5.0, rng)
    scale = 10.0 ** rng.uniform(-8.0, 130.0, mask.shape)
    u = rng.random(mask.shape)
    scale[u < 0.1] = 0.0
    scale[(u >= 0.1) & (u < 0.2)] *= -1.0
    return field * scale[..., None], mask


THRESHOLDS = [1e-9, 1e-3, 0.5, 0.99, 1.0 - 1e-9]


class TestTwoStageParity:
    """The two-stage count gives the dense float64 vote's bits, on inputs
    chosen to stress the float32 prefilter."""

    @pytest.mark.parametrize("num_samples", [16, 512, 1500])
    @pytest.mark.parametrize("thr_index", range(len(THRESHOLDS)))
    def test_matches_squared_form_oracle(self, thr_index, num_samples):
        case = 3 * thr_index + [16, 512, 1500].index(num_samples)
        rng = np.random.default_rng(40 + case)
        field, mask = adversarial_field(("wide", "tall", "small")[case % 3], rng)
        threshold = THRESHOLDS[thr_index]
        cfg = VotingConfig(num_samples=num_samples, inlier_cos_threshold=threshold,
                           rng_seed=case)
        for vote, refine in ((raw_vote, False), (vote_keypoint, True)):
            want = oracle_squared_vote(field, mask, num_samples, threshold, case, refine)
            if want is None:
                with pytest.raises(DegenerateInputError, match="no sampled pixel pair"):
                    vote(field, mask, cfg)
                continue
            loc, votes = vote(field, mask, cfg)
            assert votes == want[1]
            assert np.array_equal(bits(loc), bits(want[0]))

    def test_more_voters_than_uint8_chunks_hold(self):
        # 5,000 voters: 16 chunks would hold over 255 voters each
        mask = disc_mask(96, 96, center=(48, 48), radius=40)
        field = rotate_field(exact_field(mask, K + 20), mask, 1.0, np.random.default_rng(9))
        assert np.count_nonzero(mask) > 16 * 255
        loc, votes = vote_keypoint(field, mask, VotingConfig(rng_seed=9))
        want = oracle_squared_vote(field, mask, seed=9)
        assert votes == want[1] > 255
        assert np.array_equal(bits(loc), bits(want[0]))


class TestSceneVoteParity:
    """vote_keypoints votes a scene's K fields in one pass, and each keypoint
    gets the bits of its own dense float64 vote, or fails alone."""

    @pytest.mark.parametrize("threshold", [0.99, 1e-9])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_keypoint_oracle(self, seed, threshold):
        scene = noisy_scene(seed)
        fields, mask = scene.gt_fields.copy(), scene.mask
        ii, jj = np.nonzero(mask)
        u = np.random.default_rng(seed).random(len(ii))
        # keypoint 1: a fifth of its pixels vote for no hypothesis, half of
        # them zero and half just shorter than EPS_NORM
        short = fields[1, ii, jj]
        short[u < 0.1] = 0.0
        near = (u >= 0.1) & (u < 0.2)
        short[near] *= 5e-9 / np.linalg.norm(short[near], axis=1, keepdims=True)
        fields[1, ii, jj] = short
        # keypoint 2: one direction everywhere, so no pair forms a hypothesis
        fields[2, ii, jj] = [0.6, 0.8]
        # keypoint 3: rays from one point outwards meet behind every pixel,
        # so no pair forms a hypothesis either
        pts = np.stack([jj + 0.5, ii + 0.5], axis=1)
        away = pts - (pts.mean(axis=0) + 0.25)
        away[u < 0.3] = 0.0
        fields[3, ii, jj] = away
        cfg = VotingConfig(inlier_cos_threshold=threshold, rng_seed=seed)
        locs, votes, failures = vote_keypoints(fields[:, mask], mask, cfg)
        assert [f.split(":")[0] for f in failures] == ["keypoint 2", "keypoint 3"]
        assert all("no sampled pixel pair formed a hypothesis" in f for f in failures)
        for k, field in enumerate(fields):
            want = oracle_squared_vote(field, mask, cfg.num_samples, threshold, seed)
            if k in (2, 3):
                assert want is None and np.all(np.isnan(locs[k])) and votes[k] == 0
                continue
            assert votes[k] == want[1]
            assert np.array_equal(bits(locs[k]), bits(want[0]))
        assert min(votes[k] for k in range(8) if k not in (2, 3)) > 100

    def test_keypoints_may_be_voted_in_any_order(self):
        scene = noisy_scene(4)
        cfg = VotingConfig(rng_seed=4)
        locs, votes, failures = vote_keypoints(scene.fields, scene.mask, cfg)
        assert not failures
        shared = SceneVote(scene.fields, scene.mask, cfg)
        for k in [7, 6, 5, 4, 3, 3, 2, 1, 0]:
            loc, n = shared.vote(k)
            assert n == votes[k]
            assert np.array_equal(bits(loc), bits(locs[k]))


class TestHugeFields:
    """A field of any finite scale votes as its unit copy does."""

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_huge_fields_vote_like_their_unit_copy(self, seed):
        scene = noisy_scene(seed)
        cfg = VotingConfig(rng_seed=seed)
        want_locs, want_votes, want_failures = vote_keypoints(scene.fields, scene.mask, cfg)
        for scale in (1e150, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                locs, votes, failures = vote_keypoints(scene.fields * scale, scene.mask, cfg)
            assert failures == want_failures
            assert np.array_equal(votes, want_votes)
            assert np.max(np.abs(locs - want_locs)) <= 1e-9


def boundary_cells(threshold, rng):
    """Voters and hypotheses whose float64 test sits on its cut-offs.

    Each hypothesis h gets voters whose direction makes an angle of
    exactly arccos(thr) with h - p before a nudge of up to 4 ulps per
    component, at |h - p| = 0.5 exactly (d² = 0.25), 0.5 + 1 ulp and
    0.5 to 20 px, with lengths from 1e-8 to 1e99. One voter sits on each
    hypothesis (d = 0), one has length 1e120, and one hypothesis lies
    1e21 px away. Returns hypotheses, points, directions, and for each
    point the hypothesis its direction was aimed at on the cut, or -1.
    """
    # 400 px apart, so that each sits about B = 200 px from the voters' mean
    hyps = [np.array([10.5, 7.5]), np.array([410.25, 12.0]), np.array([1e21, -3e20])]
    pts, dirs, aimed = [], [], []
    theta = np.arccos(threshold)
    for j, h in enumerate(hyps[:2]):
        pts.append(h.copy())
        dirs.append(rng.normal(size=2))
        aimed.append(-1)
        for dist in [0.5, np.nextafter(0.5, 1.0), 0.75, 3.0, 20.0] * 6:
            phi = rng.uniform(-np.pi, np.pi)
            d = dist * np.array([np.cos(phi), np.sin(phi)])
            if dist == 0.5:
                d = np.array([0.5, 0.0]) * rng.choice([-1.0, 1.0])
                phi = 0.0 if d[0] > 0 else np.pi
            angle = phi + rng.choice([-1.0, 1.0]) * theta
            v = np.array([np.cos(angle), np.sin(angle)]) * 10.0 ** rng.uniform(-8.0, 99.0)
            for k in range(2):
                for _ in range(rng.integers(0, 5)):
                    v[k] = np.nextafter(v[k], rng.choice([-np.inf, np.inf]))
            pts.append(h - d)
            dirs.append(v)
            aimed.append(j)
        pts.append(h - [0.0, 2.0])
        dirs.append([0.0, 1e120])
        aimed.append(-1)
    return np.array(hyps), np.array(pts), np.array(dirs), np.array(aimed)


class TestLooseSuperset:
    """Stage 1 accepts every cell that the float64 test accepts."""

    @pytest.mark.parametrize("threshold", [0.01, 0.5, 0.99, 1.0 - 1e-9])
    def test_loose_test_accepts_every_float64_inlier(self, threshold):
        rng = np.random.default_rng(int(threshold * 1e6))
        on_cut = []
        for _ in range(20):
            hyps, pts, dirs, aimed = boundary_cells(threshold, rng)
            units = _units(dirs)
            voters = _voters(pts, units, threshold)
            m = len(voters[0])
            assert m == len(pts)
            # m chunks: one voter per chunk, so each chunk count is one cell
            rows, mats = _loose_operands(hyps, voters, threshold, m)
            loose = np.array([_loose_counts(rows, mat) for mat in mats], dtype=bool)
            exact = np.stack([_inliers(h[0], h[1], voters) for h in hyps], axis=1)
            assert not np.any(exact & ~loose)
            on_cut += [exact[i, j] for i, j in enumerate(aimed) if j >= 0]
        # the float64 test falls on both sides of the cut
        assert 0.1 < np.mean(on_cut) < 0.9

    def test_non_voters_and_pads_accept_no_hypothesis(self):
        # ten pixels in a row aimed at h along +x, three of them non-voters,
        # which take no row; 4 chunks of 2 rows hold the 7 voters and a pad
        pts = np.stack([np.arange(10) + 0.5, np.full(10, 0.5)], axis=1)
        dirs = np.tile([1.0, 0.0], (10, 1))
        dirs[[2, 5]] = 0.0
        dirs[7] = [5e-9, 0.0]
        hyps = np.array([[20.5, 0.5], [1e21, 0.0]])
        voters = _voters(pts, _units(dirs), 0.99)
        assert len(voters[0]) == 7
        rows, mats = _loose_operands(hyps, voters, 0.99, 4)
        assert mats.shape == (4, 4, 3)
        counts = sum(_loose_counts(rows, mat).astype(int) for mat in mats)
        assert counts.tolist() == [7, 7]

    def test_threshold_at_or_below_twice_eta_skips_stage_one(self):
        # two voters 100 px apart: B = 50, so eta = 16·2^-24·201
        pts, dirs = np.array([[0.5, 0.5], [100.5, 0.5]]), np.array([[1.0, 0.0]] * 2)
        eta = 16 * 2.0 ** -24 * 201
        hyps = np.array([[50.0, 50.0]])
        for threshold, skipped in ((2 * eta, True), (np.nextafter(2 * eta, 1.0), False)):
            voters = _voters(pts, _units(dirs), threshold)
            assert (_loose_operands(hyps, voters, threshold, 2) is None) == skipped

    def test_noisy_scene_sends_few_hypotheses_to_stage_two(self, monkeypatch):
        scene = noisy_scene(5)
        stage1, stage2 = [], []
        prune, exact_counts = voting._prune, voting._exact_counts

        def prune_spy(rows, *args):
            stage1.append(rows.shape[1])
            return prune(rows, *args)

        def exact_counts_spy(locs, *args):
            if len(stage2) < len(stage1):  # after the vote's prune, not best's leaders
                stage2.append(len(locs))
            return exact_counts(locs, *args)

        monkeypatch.setattr(voting, "_prune", prune_spy)
        monkeypatch.setattr(voting, "_exact_counts", exact_counts_spy)
        formed = []
        for k, field in enumerate(scene.gt_fields):
            formed.append(len(sample_hypotheses(field, scene.mask, VotingConfig(rng_seed=k))))
            vote_keypoint(field, scene.mask, VotingConfig(rng_seed=k))
        # every hypothesis a keypoint forms reaches stage 1
        assert len(stage1) == len(stage2) == 8 and stage1 == formed
        assert np.median(stage2) <= 64


class TestRefineCondition:
    """The closed-form condition test decides as np.linalg.cond does."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_svd_condition_cut(self, seed):
        rng = np.random.default_rng(seed)
        ratios = [1.0, 1e4, 1e12, 1e16, 1e17, 1e20]
        ratios += [1e8 * (1.0 + s * e) for s in (-1, 1) for e in (1e-3, 1e-5, 2e-6, 1e-6, 1e-7, 0)]
        for ratio in ratios:
            phi = rng.uniform(0.0, np.pi)
            r = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            big = rng.uniform(1.0, 500.0)
            A = r @ np.diag([big, big / ratio]) @ r.T
            A[1, 0] = A[0, 1]
            assert _ill_conditioned(A) == (np.linalg.cond(A) > 1e8)
        for A in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)):
            assert _ill_conditioned(A) == (np.linalg.cond(A) > 1e8)


class TestVoteKeypoint:
    def test_exact_field_recovers_keypoint(self, disc):
        mask, field = disc
        loc, votes = vote_keypoint(field, mask, VotingConfig(rng_seed=3))
        assert np.linalg.norm(loc - K) < 1e-6
        assert votes == recount(K, field, mask)

    def test_seed_independence_on_exact_field(self, disc):
        mask, field = disc
        for seed in (0, 1, 99):
            loc, _ = vote_keypoint(field, mask, VotingConfig(rng_seed=seed))
            assert np.linalg.norm(loc - K) < 1e-6

    def test_occluded_region_still_recovers(self):
        mask = disc_mask(64, 64, center=(32, 32), radius=20)
        # carve out the 30% of the disc nearest the keypoint
        ii, jj = np.nonzero(mask)
        pts = np.stack([jj + 0.5, ii + 0.5], axis=-1)
        order = np.argsort(np.linalg.norm(pts - K, axis=1))
        n_remove = int(0.3 * len(order))
        mask2 = mask.copy()
        mask2[ii[order[:n_remove]], jj[order[:n_remove]]] = False
        field = exact_field(mask2, K)
        loc, _ = vote_keypoint(field, mask2, VotingConfig(rng_seed=7))
        assert np.linalg.norm(loc - K) < 1e-6

    def test_noisy_field_regression(self):
        # median error under 5 degree noise, frozen from the oracle run
        mask = disc_mask(64, 64, center=(32, 32), radius=24)
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            field = rotate_field(exact_field(mask, K), mask, 5.0, rng)
            loc, _ = vote_keypoint(field, mask, VotingConfig(rng_seed=seed))
            errs.append(np.linalg.norm(loc - K))
        assert np.median(errs) < 2.0

    def test_all_parallel_raises(self):
        mask = disc_mask(16, 16, center=(8, 8), radius=5)
        field = np.zeros((16, 16, 2))
        field[mask] = [0.0, 1.0]
        with pytest.raises(DegenerateInputError, match="no sampled pixel pair"):
            vote_keypoint(field, mask, VotingConfig(rng_seed=0))

    def test_determinism_bit_for_bit(self, disc):
        mask, field = disc
        rng = np.random.default_rng(0)
        noisy = rotate_field(field, mask, 5.0, rng)
        a = vote_keypoint(noisy, mask, VotingConfig(rng_seed=42))
        b = vote_keypoint(noisy, mask, VotingConfig(rng_seed=42))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_refinement_never_increases_ray_cost(self):
        mask = disc_mask(48, 48, center=(24, 24), radius=16)
        rng = np.random.default_rng(21)
        field = rotate_field(exact_field(mask, K), mask, 8.0, rng)
        raw_loc, _ = raw_vote(field, mask, VotingConfig(rng_seed=2))
        ref_loc, _ = vote_keypoint(field, mask, VotingConfig(rng_seed=2))

        def cost(q):
            ii, jj = np.nonzero(mask)
            total = 0.0
            for i, j in zip(ii, jj):
                p = np.array([j + 0.5, i + 0.5])
                v = field[i, j]
                n = np.linalg.norm(v)
                diff = q - p
                dist = np.linalg.norm(diff)
                if dist < 0.5 or n < 1e-8:
                    continue
                if np.dot(v, diff) / (dist * n) < 0.99:
                    continue
                cr = v[0] * diff[1] - v[1] * diff[0]
                total += (cr / n) ** 2
            return total

        assert cost(ref_loc) <= cost(raw_loc) + 1e-9

    def test_sampled_winner_in_oracle_top_decile(self):
        mask = disc_mask(24, 24, center=(12, 12), radius=8)
        rng = np.random.default_rng(31)
        field = rotate_field(exact_field(mask, K), mask, 5.0, rng)
        stats = oracle_all_pairs_vote(field, mask, K)
        loc, votes = raw_vote(field, mask, VotingConfig(rng_seed=6))
        assert votes >= 0.9 * stats.best_votes


def test_monotone_degradation_with_noise():
    mask = disc_mask(64, 64, center=(32, 32), radius=24)
    base = exact_field(mask, K)
    medians = []
    for sigma in (0.0, 2.0, 5.0, 10.0):
        errs = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            field = rotate_field(base, mask, sigma, rng)
            loc, _ = vote_keypoint(field, mask, VotingConfig(rng_seed=seed))
            errs.append(np.linalg.norm(loc - K))
        medians.append(np.median(errs))
    for lo, hi in zip(medians, medians[1:]):
        assert hi >= lo * 0.95


def test_voting_config_validation():
    with pytest.raises(ValueError):
        VotingConfig(num_samples=0)
    with pytest.raises(ValueError):
        VotingConfig(inlier_cos_threshold=1.5)
