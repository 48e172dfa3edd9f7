"""Masked aggregation: exactness vs. plaintext oracle, hiding, wire format."""

import hashlib
import random
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitrace import secure_agg
from epitrace.secure_agg import (
    ENTRY_BOUND,
    MASK_MODULUS,
    PARTICIPANT_BOUND,
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

# frozen via an independent SHAKE-256 computation, not through pairwise_mask
MASK_ZERO_K0 = 4197345515
MASK_ZERO_K1 = 2414710490


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

    def test_matches_direct_shake256(self):
        secret = b"\x55" * 32
        mask = pairwise_mask(secret, 5)
        stream = hashlib.shake_256(secret + b"MASK").digest(20)
        for k in range(5):
            assert mask[k] == int.from_bytes(stream[4 * k : 4 * k + 4], "big")

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

    def test_participant_bound(self):
        # checked before the seeds and the share count, so the error is not
        # MissingSeed or WrongShareCount (both ValueError subclasses)
        v = ContributionVector(flat_space(2), (1, 1))
        for n in (PARTICIPANT_BOUND, PARTICIPANT_BOUND + 1):
            with pytest.raises(ValueError, match="participants") as err:
                mask_contribution(v, 0, [], n)
            assert type(err.value) is ValueError
            with pytest.raises(ValueError, match="participants") as err:
                aggregate([], n, 2)
            assert type(err.value) is ValueError
        with pytest.raises(MissingSeed):
            mask_contribution(v, 0, [], PARTICIPANT_BOUND - 1)
        with pytest.raises(WrongShareCount):
            aggregate([], PARTICIPANT_BOUND - 1, 2)
        assert aggregate([], 0, 2) == [0, 0]

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

    @pytest.mark.parametrize("stranger", [3, -1, 6])  # n, -1 and 2n for a 3-participant round
    def test_share_from_outside_the_cohort_aborts(self, stranger):
        rng = random.Random(7)
        _r, _o, shares, _v = run_round(rng, 3, 3)
        with pytest.raises(WrongShareCount):
            aggregate([shares[0], shares[1], MaskedShare(stranger, shares[2].values)], 3, 3)

    @pytest.mark.parametrize("bad", [MASK_MODULUS, -1, 1.5, "1"], ids=["2^32", "negative", "float", "str"])
    def test_malformed_value_aborts(self, bad):
        rng = random.Random(8)
        _r, _o, shares, _v = run_round(rng, 3, 3)
        values = shares[1].values[:2] + (bad,)
        with pytest.raises(ValueError, match="participant 1 sent a value"):
            aggregate([shares[0], MaskedShare(1, values), shares[2]], 3, 3)
        with pytest.raises(ValueError, match="participant 0 sent a value"):
            aggregate([MaskedShare(0, (bad,))], 1, 1)

    def test_value_range_ends_are_accepted(self):
        assert aggregate([MaskedShare(0, (0, MASK_MODULUS - 1))], 1, 2) == [0, MASK_MODULUS - 1]

    def test_bool_participant_aborts(self):
        # True == 1, so it would pass the cohort check as participant 1
        rng = random.Random(8)
        _r, _o, shares, _v = run_round(rng, 2, 3)
        with pytest.raises(ValueError, match="participant True is not an int"):
            aggregate([shares[0], MaskedShare(True, shares[1].values)], 2, 3)

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

    @given(
        st.binary(max_size=80)
        | st.tuples(st.binary(min_size=4, max_size=4), st.lists(st.binary(min_size=4, max_size=4), max_size=8)).map(
            lambda t: t[0] + len(t[1]).to_bytes(4, "big") + b"".join(t[1])
        )
    )
    def test_decoder_round_trips_or_rejects(self, data):
        # arbitrary bytes, plus well-framed ones so the decode branch runs
        try:
            share = MaskedShare.from_bytes(data)
        except ValueError:
            return
        assert share.to_bytes() == data


class TestCellIndexSpace:
    def test_dimension_and_round_trip(self):
        space = CellIndexSpace(("a", "b", "c"), (0, 3600, 7200), bin_seconds=3600)
        assert space.dimension == 9
        for idx in range(space.dimension):
            cell, bin_start = space.coordinate(idx)
            assert space.index_of(cell, bin_start) == idx

    @pytest.mark.parametrize("idx", [-1, -4, 4, 5])
    def test_coordinate_outside_space_rejected(self, idx):
        # a negative index must not wrap round to the end of the space
        space = CellIndexSpace(((0, 0), (1, 0)), (0, 3600), bin_seconds=3600)
        with pytest.raises(IndexError):
            space.coordinate(idx)

    def test_coordinate_of_empty_space_rejected(self):
        with pytest.raises(IndexError):
            CellIndexSpace(("a",), ()).coordinate(0)

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

    @pytest.mark.parametrize("count", [1.5, 2.0, True, False, "1", None])
    def test_non_int_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"count {count!r} "):
            ContributionVector(flat_space(2), (count, 2))

    def test_from_visits_counts_and_drops(self):
        space = CellIndexSpace(((0, 0), (1, 1)), (0, 3600), bin_seconds=3600)
        visits = [((0, 0), 0), ((0, 0), 1800), ((1, 1), 3600), ((9, 9), 0), ((0, 0), 99999)]
        v = ContributionVector.from_visits(space, visits)
        assert v.counts == (2, 0, 0, 1)


# -- dense_counts on cell -> {time: count} vs. a per-key index_of loop ----------


def ref_dense_counts(space, grouped):
    out = [0] * space.dimension
    for cell, by_time in grouped.items():
        for t, n in by_time.items():
            idx = space.index_of(cell, t)
            if idx is not None:
                out[idx] += n
    return out


@st.composite
def space_and_times(draw):
    """A space over cells a, b, c with bins that may leave gaps, plus a
    strategy for cells (z lies outside) and one for times: bin starts,
    times inside a bin, and times anywhere, including gaps and past both
    ends."""
    bins = draw(st.lists(st.integers(-500, 500), unique=True).map(sorted))
    space = CellIndexSpace(("a", "b", "c"), tuple(bins), draw(st.integers(1, 200)))
    anywhere = st.integers(-1000, 1500) | st.floats(-1000, 1500, allow_nan=False)
    if bins:
        starts = st.sampled_from(bins)
        anywhere = starts | starts.flatmap(lambda b: st.integers(b, b + space.bin_seconds - 1)) | anywhere
    return space, st.sampled_from(("a", "b", "c", "z")), anywhere


class TestDenseCounts:
    def test_each_kind_of_time(self):
        space = CellIndexSpace(("a", "b"), (0, 3600, 10800), bin_seconds=3600)
        grouped = {
            "a": {0: 1, 1800: 2, 3599: 4, 7200: 8, -1: 16, 14400: 32},  # start, inside, gap, before, after
            "b": {10800: 3, 14399.5: 5},
            "z": {0: 64},  # outside the space
        }
        assert space.dense_counts(grouped) == [7, 0, 0, 0, 0, 8]

    @given(data=st.data())
    def test_matches_index_of_loop(self, data):
        space, cells, times = data.draw(space_and_times())
        grouped = data.draw(st.dictionaries(cells, st.dictionaries(times, st.integers(1, 50), max_size=10)))
        assert space.dense_counts(grouped) == ref_dense_counts(space, grouped)

    @given(data=st.data())
    def test_from_visits_matches_counter(self, data):
        space, cells, times = data.draw(space_and_times())
        visits = data.draw(st.lists(st.tuples(cells, times), max_size=30))
        visits += data.draw(st.lists(st.sampled_from(visits), max_size=10)) if visits else []
        expected = [0] * space.dimension
        for (cell, t), n in Counter(visits).items():
            idx = space.index_of(cell, t)
            if idx is not None:
                expected[idx] += n
        assert ContributionVector.from_visits(space, visits).counts == tuple(expected)


# -- masking vs. the per-entry reference loops ----------------------------------

# sha256 of the concatenated shares and of the aggregate (u32 BE words) of
# pinned_round(), taken with the per-entry loops below
PINNED_SHARES_SHA256 = "7046457d9037173e06bd44cbad6d283f20a6638716b158ad9ab38a7da98d4436"
PINNED_AGGREGATE_SHA256 = "c6a521bc343bb78c154e352f83a6c1be2701647276a23d5f45666e4cc0507a54"


def pinned_round():
    # n=6: every participant but the ends has peers above and below it
    return run_round(random.Random(4242), 6, 97)


def ref_mask_stream(secret, dimension):
    return hashlib.shake_256(secret + b"MASK").digest(4 * dimension)


def ref_pairwise_mask(secret, dimension, mask_stream=ref_mask_stream):
    stream = mask_stream(secret, dimension)
    out = []
    for k in range(dimension):
        out.append(int.from_bytes(stream[4 * k : 4 * k + 4], "big"))
    return out


def ref_mask_contribution(v, me, seeds, n, mask_stream=ref_mask_stream):
    by_peer = {}
    for s in seeds:
        if s.i == me:
            by_peer[s.j] = s
        elif s.j == me:
            by_peer[s.i] = s
    values = [c % MASK_MODULUS for c in v.counts]
    d = len(values)
    for peer, seed in sorted(by_peer.items()):
        mask = ref_pairwise_mask(seed.secret, d, mask_stream)
        if me < peer:
            for k in range(d):
                values[k] = (values[k] + mask[k]) % MASK_MODULUS
        else:
            for k in range(d):
                values[k] = (values[k] - mask[k]) % MASK_MODULUS
    return MaskedShare(me, tuple(values))


def ref_aggregate(shares, dimension):
    totals = [0] * dimension
    for s in shares:
        for k, val in enumerate(s.values):
            totals[k] = (totals[k] + val) % MASK_MODULUS
    return totals


class TestReferenceEquivalence:
    def test_pinned_shares(self):
        _result, _oracle, shares, _vectors = pinned_round()
        blob = b"".join(s.to_bytes() for s in shares)
        assert hashlib.sha256(blob).hexdigest() == PINNED_SHARES_SHA256

    def test_pinned_aggregate(self):
        result, oracle, _shares, _vectors = pinned_round()
        assert result == oracle
        words = b"".join(v.to_bytes(4, "big") for v in result)
        assert hashlib.sha256(words).hexdigest() == PINNED_AGGREGATE_SHA256

    @pytest.mark.parametrize("dimension", [1, 2, 97, 1000])
    def test_mask_matches_reference(self, dimension):
        rng = random.Random(dimension)
        for _ in range(3):
            secret = rng.randbytes(32)
            assert pairwise_mask(secret, dimension) == ref_pairwise_mask(secret, dimension)
            assert pairwise_mask(PairwiseSeed(0, 1, secret), dimension) == ref_pairwise_mask(secret, dimension)

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 7), (2, 1), (3, 1), (5, 13), (7, 64)])
    def test_round_matches_reference(self, n, d):
        rng = random.Random(1000 * n + d)
        space = flat_space(d)
        vectors = [ContributionVector(space, tuple(rng.randrange(1 << 16) for _ in range(d))) for _ in range(n)]
        seeds = make_pairwise_seeds(n, rng)
        for i in range(n):
            # the whole pool, so seeds that do not involve i are passed too
            for pool in (seeds, seeds_for(i, seeds), list(reversed(seeds))):
                assert mask_contribution(vectors[i], i, pool, n) == ref_mask_contribution(vectors[i], i, pool, n)
        shares = [mask_contribution(vectors[i], i, seeds, n) for i in range(n)]
        rng.shuffle(shares)
        assert aggregate(shares, n, d) == ref_aggregate(shares, d)
        assert aggregate(shares, n, d) == [sum(v.counts[k] for v in vectors) for k in range(d)]

    def test_aggregate_wraps_like_reference(self):
        # arbitrary u32 words, whose column sums exceed 2^32
        rng = random.Random(11)
        for n, d in [(0, 3), (1, 1), (4, 1), (9, 30)]:
            shares = [MaskedShare(i, tuple(rng.randrange(MASK_MODULUS) for _ in range(d))) for i in range(n)]
            assert aggregate(shares, n, d) == ref_aggregate(shares, d)


class TestLaneEdges:
    """Mask streams of all-one and all-zero bytes against the reference.

    With every mask word 2^32 - 1, a participant with more peers below it
    than above subtracts more than it adds, so a lane without the n_sub *
    2^32 bias borrows from the lane above; counts at ENTRY_BOUND - 1 and
    the bias itself fill the bits above 32 that the final reduction clears.
    An odd dimension leaves the top odd-word lane empty.
    """

    @pytest.mark.parametrize("fill", [0xFF, 0x00])
    @pytest.mark.parametrize("d", [1, 2, 97])
    def test_share_matches_reference(self, monkeypatch, fill, d):
        def stub(_secret, dimension):
            return bytes([fill]) * (4 * dimension)

        monkeypatch.setattr(secure_agg, "_mask_stream", stub)
        v = ContributionVector(flat_space(d), (ENTRY_BOUND - 1,) * d)
        for n in (1, 2, 3, 40):
            seeds = make_pairwise_seeds(n, random.Random(n))
            for me in range(n):
                want = ref_mask_contribution(v, me, seeds, n, stub)
                assert mask_contribution(v, me, seeds, n) == want, (n, me)
