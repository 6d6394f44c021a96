import numpy as np
import pytest

from helpers import disc_mask, exact_field, rotate_field
from oracles import oracle_all_pairs_vote, oracle_inlier_counts, oracle_inlier_table, oracle_vote
from proxyvote.errors import InsufficientSupportError, NoValidHypothesisError
from proxyvote.voting import (VotingConfig, _chunk_counts, _chunks, _hypothesis_locations,
                              _masked_pixels, _refine_location, _voters, _workspace,
                              count_inliers, vote_keypoint)

K = np.array([20.3, 41.7])


def sample_hypotheses(field, mask, cfg):
    return _hypothesis_locations(*_masked_pixels(field, mask), cfg)


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
        with pytest.raises(InsufficientSupportError):
            sample_hypotheses(np.zeros((4, 4, 2)), mask, VotingConfig())

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
    return _hypothesis_locations(pts, dirs, VotingConfig(num_samples=16, rng_seed=0))


class TestRayIntersection:
    def test_axis_crossing(self):
        x = pair_intersections((0, 0), (1, 0), (4, -2), (0, 1))
        assert len(x) > 0 and np.allclose(x, [4, 0])

    def test_parallel_returns_none(self):
        assert pair_intersections((0, 0), (1, 1), (3, 0), (2, 2)).shape == (0, 2)

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
        got = count_inliers(K, field, mask, 0.99)
        assert got == recount(K, field, mask)
        # every masked pixel except those within 0.5 px of K votes
        assert got >= np.count_nonzero(mask) - 2

    def test_opposite_point_loses_badly(self, disc):
        mask, field = disc
        q = np.array([32.0, -500.0])
        got = count_inliers(q, field, mask, 0.99)
        assert got == recount(q, field, mask)
        assert got < 0.1 * count_inliers(K, field, mask, 0.99)

    def test_half_flipped_matches_per_pixel_oracle(self):
        mask = disc_mask(32, 32, center=(16, 16), radius=10)
        field = exact_field(mask, K)
        rng = np.random.default_rng(5)
        flip = rng.random((32, 32)) < 0.5
        field = np.where(flip[..., None], -field, field)
        got = count_inliers(K, field, mask, 0.99)
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
    """Unpruned counts from the chunk tables: every hypothesis on every chunk."""
    voters = _voters(*_masked_pixels(field, mask), thr)
    chunks = _chunks(voters, len(hyps))
    hx, hy = hyps.T.copy().reshape(2, 1, -1)
    work = _workspace(len(chunks[0][0]) * len(hyps))
    return sum(_chunk_counts(hx, hy, chunk, work) for chunk in chunks)


class TestInlierParity:
    """The chunked squared-form counts equal the cosine rule exactly."""

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
        assert count_inliers(h, field, mask, 0.99) == recount(h, field, mask) == 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_winner_votes_are_its_inlier_count(self, seed):
        mask = disc_mask(48, 48, center=(24, 24), radius=12)
        field = parity_field("half_flipped", mask, np.random.default_rng(seed))
        raw, votes = vote_keypoint(field, mask, VotingConfig(rng_seed=seed, refine=False))
        assert votes == count_inliers(raw, field, mask, 0.99)
        _, refined_votes = vote_keypoint(field, mask, VotingConfig(rng_seed=seed))
        assert refined_votes == votes


def bits(loc):
    return np.asarray(loc, dtype=float).view(np.uint64)


def assert_matches_dense_vote(field, mask, cfg):
    """vote_keypoint(refine=False) equals the unpruned oracle bit for bit."""
    loc, votes = vote_keypoint(field, mask, cfg)
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
        assert_matches_dense_vote(field, mask, VotingConfig(rng_seed=seed, refine=False))

    def test_more_hypotheses_than_a_table_holds(self):
        # 1,500 samples: more chunks than the default 16, each with fewer voters
        mask = disc_mask(48, 48, center=(24, 24), radius=12)
        field = parity_field("half_flipped", mask, np.random.default_rng(7))
        assert len(_chunks(_voters(*_masked_pixels(field, mask), 0.99), 1500)) > 16
        assert_matches_dense_vote(field, mask, VotingConfig(num_samples=1500, rng_seed=7,
                                                            refine=False))

    @pytest.mark.parametrize("n_px", range(2, 16))
    def test_fewer_voters_than_chunks(self, n_px):
        rng = np.random.default_rng(n_px)
        mask = np.zeros((16, 16), bool)
        mask.flat[rng.choice(mask.size, n_px, replace=False)] = True
        field = rotate_field(exact_field(mask, K / 4), mask, 20.0, rng)
        for cfg in (VotingConfig(rng_seed=n_px, refine=False),
                    VotingConfig(num_samples=16, rng_seed=n_px, refine=False)):
            assert_matches_dense_vote(field, mask, cfg)

    def test_exact_ties_keep_the_dense_tie_break(self):
        # half the chunks point left, half right: the left and right hypotheses
        # tie at 64 votes, and the left ones, first in (x, y) order, can only
        # just reach the bound set by a right-hand chunk-0 leader
        mask, field, to_right = two_target_field(range(8))
        cfg = VotingConfig(rng_seed=5, refine=False)
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
        cfg = VotingConfig(rng_seed=6, refine=False)
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
        raw, votes = vote_keypoint(field, mask, VotingConfig(rng_seed=3, refine=False))
        loc, refined_votes = vote_keypoint(field, mask, VotingConfig(rng_seed=3))
        voters = _voters(*_masked_pixels(field, mask), 0.99)
        eligible = np.hypot(*field[mask].T) >= 1e-8
        row = oracle_inlier_table(raw, field, mask)[0][eligible]
        want = _refine_location(raw, voters, row)
        assert refined_votes == votes == np.count_nonzero(row)
        assert np.array_equal(bits(loc), bits(want))


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
        with pytest.raises(NoValidHypothesisError):
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
        raw_loc, _ = vote_keypoint(field, mask, VotingConfig(rng_seed=2, refine=False))
        ref_loc, _ = vote_keypoint(field, mask, VotingConfig(rng_seed=2, refine=True))

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
        loc, votes = vote_keypoint(field, mask, VotingConfig(rng_seed=6, refine=False))
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
