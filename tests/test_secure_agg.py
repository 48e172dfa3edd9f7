"""Masked aggregation: exactness vs. plaintext oracle, hiding, wire format."""

import hashlib
import random
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitrace.secure_agg import (
    MASK_MODULUS,
    CellIndexSpace,
    ContributionVector,
    DimensionMismatch,
    MaskedShare,
    MissingSeed,
    PairwiseSeed,
    WrongShareCount,
    aggregate,
    make_pairwise_seeds,
    mask_contribution,
    pairwise_mask,
    seeds_for,
)

# frozen via an independent SHA-256 computation before the implementation
MASK_ZERO_K0 = 2547040482
MASK_ZERO_K1 = 1311755471


def flat_space(d):
    return CellIndexSpace(tuple(range(d)), (0,), bin_seconds=60)


def run_round(rng, n, d, bound=100):
    """Full protocol round over random vectors; returns (result, oracle)."""
    space = flat_space(d)
    vectors = [ContributionVector(space, tuple(rng.randrange(bound) for _ in range(d))) for _ in range(n)]
    seeds = make_pairwise_seeds(n, rng)
    shares = [mask_contribution(vectors[i], i, seeds_for(i, seeds), n) for i in range(n)]
    result = aggregate(shares, n, d)
    oracle = [sum(v.counts[k] for v in vectors) for k in range(d)]
    return result, oracle, shares, vectors


class TestMaskDerivation:
    def test_pinned_vectors(self):
        mask = pairwise_mask(bytes(32), 2)
        assert mask[0] == MASK_ZERO_K0
        assert mask[1] == MASK_ZERO_K1

    def test_matches_direct_sha256(self):
        secret = b"\x55" * 32
        mask = pairwise_mask(secret, 5)
        for k in range(5):
            digest = hashlib.sha256(secret + b"MASK" + k.to_bytes(4, "big")).digest()
            assert mask[k] == int.from_bytes(digest[:4], "big")

    def test_deterministic(self):
        seed = PairwiseSeed(0, 1, b"\x10" * 32)
        assert pairwise_mask(seed, 64) == pairwise_mask(seed, 64)

    def test_range(self):
        rng = random.Random(0)
        for value in pairwise_mask(rng.randbytes(32), 1000):
            assert 0 <= value < MASK_MODULUS


class TestMasking:
    def test_single_participant_share_is_plaintext(self):
        v = ContributionVector(flat_space(3), (5, 0, 7))
        share = mask_contribution(v, 0, [], 1)
        assert share.values == (5, 0, 7)

    def test_two_party_masks_cancel(self):
        rng = random.Random(1)
        space = flat_space(4)
        v0 = ContributionVector(space, (1, 2, 3, 4))
        v1 = ContributionVector(space, (10, 20, 30, 40))
        seeds = make_pairwise_seeds(2, rng)
        s0 = mask_contribution(v0, 0, seeds, 2)
        s1 = mask_contribution(v1, 1, seeds, 2)
        for k in range(4):
            assert (s0.values[k] + s1.values[k]) % MASK_MODULUS == v0.counts[k] + v1.counts[k]

    def test_missing_seed_rejected(self):
        v = ContributionVector(flat_space(2), (1, 1))
        seeds = [PairwiseSeed(0, 1, bytes(32))]
        with pytest.raises(MissingSeed):
            mask_contribution(v, 0, seeds, 3)  # seed {0,2} absent

    def test_share_values_look_nothing_like_plaintext(self):
        rng = random.Random(2)
        _result, _oracle, shares, vectors = run_round(rng, 3, 50)
        for share, v in zip(shares, vectors):
            equal = sum(1 for a, b in zip(share.values, v.counts) if a == b)
            assert equal <= 2  # ~2^-32 per entry by chance


class TestAggregation:
    def test_worked_example(self):
        rng = random.Random(3)
        space = flat_space(2)
        vectors = [
            ContributionVector(space, (1, 2)),
            ContributionVector(space, (0, 1)),
            ContributionVector(space, (4, 0)),
        ]
        seeds = make_pairwise_seeds(3, rng)
        shares = [mask_contribution(vectors[i], i, seeds_for(i, seeds), 3) for i in range(3)]
        assert aggregate(shares, 3, 2) == [5, 3]

    def test_all_zero(self):
        rng = random.Random(4)
        result, oracle, _s, _v = run_round(rng, 6, 5, bound=1)
        assert result == oracle == [0] * 5

    def test_random_cohort_matches_oracle(self):
        rng = random.Random(5)
        result, oracle, _s, _v = run_round(rng, 5, 16)
        assert result == oracle

    def test_wrong_share_count_aborts(self):
        rng = random.Random(6)
        _r, _o, shares, _v = run_round(rng, 4, 3)
        with pytest.raises(WrongShareCount):
            aggregate(shares[:3], 4, 3)

    def test_duplicate_participants_abort(self):
        rng = random.Random(7)
        _r, _o, shares, _v = run_round(rng, 3, 3)
        with pytest.raises(WrongShareCount):
            aggregate([shares[0], shares[1], shares[1]], 3, 3)

    def test_dimension_mismatch_aborts(self):
        rng = random.Random(8)
        _r, _o, shares, _v = run_round(rng, 3, 3)
        bad = MaskedShare(2, shares[2].values + (0,))
        with pytest.raises(DimensionMismatch):
            aggregate([shares[0], shares[1], bad], 3, 3)


class TestWireFormat:
    def test_encoding_is_bit_exact(self):
        share = MaskedShare(7, (1, 2, MASK_MODULUS - 1))
        expected = (
            (7).to_bytes(4, "big")
            + (3).to_bytes(4, "big")
            + (1).to_bytes(4, "big")
            + (2).to_bytes(4, "big")
            + (MASK_MODULUS - 1).to_bytes(4, "big")
        )
        assert share.to_bytes() == expected
        assert MaskedShare.from_bytes(expected) == share

    def test_round_trip_random(self):
        rng = random.Random(9)
        share = MaskedShare(123, tuple(rng.randrange(MASK_MODULUS) for _ in range(40)))
        assert MaskedShare.from_bytes(share.to_bytes()) == share

    def test_truncated_rejected(self):
        blob = MaskedShare(0, (1, 2)).to_bytes()
        with pytest.raises(ValueError):
            MaskedShare.from_bytes(blob[:-2])


class TestCellIndexSpace:
    def test_dimension_and_round_trip(self):
        space = CellIndexSpace(("a", "b", "c"), (0, 3600, 7200), bin_seconds=3600)
        assert space.dimension == 9
        for idx in range(space.dimension):
            cell, bin_start = space.coordinate(idx)
            assert space.index_of(cell, bin_start) == idx

    def test_bin_bucketing(self):
        space = CellIndexSpace(("a",), (0, 3600, 10800), bin_seconds=3600)
        assert space.bin_index(0) == 0
        assert space.bin_index(3599) == 0
        assert space.bin_index(3600) == 1
        assert space.bin_index(7200) is None  # gap between bins
        assert space.bin_index(10800) == 2
        assert space.bin_index(14400) is None
        assert space.bin_index(-1) is None

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CellIndexSpace(("a", "a"), (0,))
        with pytest.raises(ValueError):
            CellIndexSpace(("a",), (0, 0))
        with pytest.raises(ValueError):
            CellIndexSpace(("a",), (3600, 0))

    def test_unknown_cell(self):
        space = CellIndexSpace(("a",), (0,))
        assert space.index_of("zzz", 0) is None

    @given(
        bins=st.lists(st.integers(-(10**6), 10**6), unique=True).map(sorted),
        bin_seconds=st.integers(1, 10**5),
        data=st.data(),
    )
    def test_index_of_matches_bisect(self, bins, bin_seconds, data):
        # exact bin starts take the dict path; every other time the bisect
        space = CellIndexSpace(("a", "b"), tuple(bins), bin_seconds)
        times = st.integers(-(2 * 10**6), 2 * 10**6) | st.floats(allow_nan=False)
        t = data.draw(st.sampled_from(bins) | times if bins else times)
        i = bisect_right(bins, t) - 1
        expected = i if i >= 0 and t < bins[i] + bin_seconds else None
        assert space.index_of("a", t) == expected
        assert space.index_of("b", t) == (None if expected is None else len(bins) + expected)
        assert space.index_of("c", t) is None


class TestContributionVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ContributionVector(flat_space(1), (1 << 16,))
        with pytest.raises(ValueError):
            ContributionVector(flat_space(1), (-1,))
        with pytest.raises(ValueError):
            ContributionVector(flat_space(2), (1,))

    def test_from_visits_counts_and_drops(self):
        space = CellIndexSpace(((0, 0), (1, 1)), (0, 3600), bin_seconds=3600)
        visits = [((0, 0), 0), ((0, 0), 1800), ((1, 1), 3600), ((9, 9), 0), ((0, 0), 99999)]
        v = ContributionVector.from_visits(space, visits)
        assert v.counts == (2, 0, 0, 1)
