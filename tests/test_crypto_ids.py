"""Seed chain, ephemeral ID derivation, reports, and escrow."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitrace.crypto_ids import (
    EPOCHS_PER_DAY,
    DailySeed,
    DuplicateRegistration,
    EscrowTable,
    ExposureReport,
    NonContiguousDays,
    contact_digest,
    derive_epoch_id,
    derive_next_seed,
    epoch_ids,
    ids_by_epoch,
    report_from_seeds,
    report_id_set,
    report_id_table,
)

ZERO_SEED = DailySeed(0, bytes(32))

# frozen via an independent SHA-256 computation before the implementation
# existed; pins the exact derivation (domain strings, encoding, truncation)
NEXT_SECRET_OF_ZERO = "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"
EPHID_ZERO_EPOCH0 = "f7cd6badac08d13384a129510cd51830"
EPHID_ZERO_EPOCH1 = "adbf7d392a6edc0f856ce6f63468b2d7"


def _chain(first: DailySeed, days: int) -> list[DailySeed]:
    out = [first]
    for _ in range(days - 1):
        out.append(derive_next_seed(out[-1]))
    return out


class TestSeedChain:
    def test_next_seed_matches_pinned_vector(self):
        nxt = derive_next_seed(ZERO_SEED)
        assert nxt.secret.hex() == NEXT_SECRET_OF_ZERO
        assert nxt.day == 1

    def test_derivation_is_deterministic(self):
        a = derive_next_seed(ZERO_SEED)
        b = derive_next_seed(ZERO_SEED)
        assert a == b
        assert a.secret == b.secret

    def test_day_increments_for_any_input(self):
        rng = random.Random(1)
        for _ in range(20):
            seed = DailySeed(rng.randrange(1000), rng.randbytes(32))
            assert derive_next_seed(seed).day == seed.day + 1

    def test_original_seed_unchanged(self):
        derive_next_seed(ZERO_SEED)
        assert ZERO_SEED.secret == bytes(32)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            DailySeed(-1, bytes(32))
        with pytest.raises(ValueError):
            DailySeed(0, bytes(31))

    @pytest.mark.parametrize("day", [1.5, True, "0"], ids=["float", "bool", "str"])
    def test_seed_day_must_be_an_int(self, day):
        with pytest.raises(ValueError, match="day must be an int"):
            DailySeed(day, bytes(32))

    @pytest.mark.parametrize(
        "secret", ["a" * 32, bytearray(32), memoryview(bytes(32))], ids=["str", "bytearray", "memoryview"]
    )
    def test_seed_secret_must_be_bytes(self, secret):
        # derive_next_seed hashes the secret, which a str cannot feed
        with pytest.raises(ValueError, match="of type bytes"):
            DailySeed(0, secret)


class TestEphemeralIds:
    def test_schedule_has_96_ids(self):
        assert len(epoch_ids(ZERO_SEED.secret)) == EPOCHS_PER_DAY == 96

    def test_pinned_epoch_vectors(self):
        ids = epoch_ids(ZERO_SEED.secret)
        assert ids[0].hex() == EPHID_ZERO_EPOCH0
        assert ids[1].hex() == EPHID_ZERO_EPOCH1

    def test_expansion_deterministic(self):
        assert epoch_ids(ZERO_SEED.secret) == epoch_ids(ZERO_SEED.secret)

    def test_ids_pairwise_distinct_over_random_seeds(self):
        rng = random.Random(99)
        for _ in range(1000):
            ids = epoch_ids(rng.randbytes(32))
            assert len(set(ids)) == 96 and all(len(raw) == 16 for raw in ids)

    def test_batch_ids_match_single_derivation_and_pinned_vectors(self):
        rng = random.Random(12)
        for secret in [bytes(32)] + [rng.randbytes(32) for _ in range(20)]:
            batch = epoch_ids(secret)
            assert batch == [derive_epoch_id(secret, j) for j in range(EPOCHS_PER_DAY)]
            assert batch == [
                hashlib.sha256(secret + b"EPHID" + j.to_bytes(4, "big")).digest()[:16] for j in range(96)
            ]
        assert epoch_ids(bytes(32))[:2] == [bytes.fromhex(EPHID_ZERO_EPOCH0), bytes.fromhex(EPHID_ZERO_EPOCH1)]

    @pytest.mark.parametrize("epoch", [-1, EPOCHS_PER_DAY, 10**6])
    def test_single_id_only_for_an_epoch_of_the_day(self, epoch):
        with pytest.raises(ValueError, match=f"epoch {epoch} outside 0..95"):
            derive_epoch_id(bytes(32), epoch)

    def test_epoch_range_is_a_slice_of_the_day(self):
        rng = random.Random(13)
        secret = rng.randbytes(32)
        day = epoch_ids(secret)
        bounds = [0, 1, 47, 95, 96] + [rng.randrange(97) for _ in range(20)]
        for start in bounds:
            for stop in bounds:
                assert epoch_ids(secret, start, stop) == day[start:stop]
        assert epoch_ids(bytes(32), 1, 2) == [bytes.fromhex(EPHID_ZERO_EPOCH1)]

    @pytest.mark.parametrize(
        "start, stop, first_outside", [(-5, 96, -5), (-1, 0, -1), (90, 200, 96), (0, 97, 96), (97, 97, 97), (0, -3, -3)]
    )
    def test_epoch_range_outside_the_day_rejected(self, start, stop, first_outside):
        # a negative start once wrapped round to the day's last epochs
        with pytest.raises(ValueError, match=f"epoch {first_outside} outside 0..95"):
            epoch_ids(bytes(32), start, stop)

    def test_ids_by_epoch_derives_the_given_epochs_in_their_slots(self):
        rng = random.Random(14)
        secret = rng.randbytes(32)
        day = epoch_ids(secret)
        for epochs in (b"", bytes([40, 3]), bytes([95]), bytes(range(96))):
            assert ids_by_epoch(secret, epochs) == [day[e] if e in epochs else None for e in range(96)]

    @pytest.mark.parametrize("bad", [96, 255])
    def test_ids_by_epoch_outside_the_day_rejected(self, bad):
        with pytest.raises(ValueError, match=f"epoch {bad} outside 0..95"):
            ids_by_epoch(bytes(32), bytes([3, bad]))


class TestExposureReports:
    def test_fourteen_day_report(self):
        chain = _chain(DailySeed(3, bytes(32)), 14)
        report = report_from_seeds(chain)
        assert report.first_day == 3
        assert report.last_day == 16
        assert len(report_id_set(report)) == 14 * 96

    def test_single_seed_report(self):
        report = report_from_seeds([ZERO_SEED])
        assert len(report_id_set(report)) == 96

    def test_gap_rejected(self):
        seeds = [DailySeed(3, bytes(32)), DailySeed(5, bytes(32))]
        with pytest.raises(NonContiguousDays):
            report_from_seeds(seeds)

    def test_empty_rejected(self):
        with pytest.raises(NonContiguousDays):
            report_from_seeds([])

    def test_wire_format_is_bit_exact(self):
        secrets_ = [bytes([i]) * 32 for i in range(3)]
        report = ExposureReport(first_day=7, seeds=tuple(secrets_))
        # independent construction of the expected encoding
        expected = (7).to_bytes(8, "big") + (3).to_bytes(4, "big") + b"".join(secrets_)
        assert report.to_bytes() == expected
        assert ExposureReport.from_bytes(expected) == report

    @pytest.mark.parametrize("first_day", [-1, 1 << 64, 1.5, True], ids=["negative", "2^64", "float", "bool"])
    def test_first_day_must_be_a_u64(self, first_day):
        # to_bytes writes first_day as a u64, so nothing outside one is a report
        with pytest.raises(ValueError, match="first_day"):
            ExposureReport(first_day, (bytes(32),))

    def test_largest_first_day_round_trips(self):
        report = ExposureReport((1 << 64) - 1, (bytes(32),))
        assert ExposureReport.from_bytes(report.to_bytes()) == report

    @pytest.mark.parametrize(
        "seeds",
        [
            pytest.param(("a" * 32,), id="str-seed"),
            pytest.param((bytearray(32),), id="bytearray-seed"),
            pytest.param([bytes(32)], id="list"),  # a report must hash
            pytest.param((), id="empty"),
        ],
    )
    def test_seeds_must_be_a_tuple_of_bytes(self, seeds):
        with pytest.raises(ValueError):
            ExposureReport(0, seeds)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_decoder_takes_any_bytes_like_input(self, wrap):
        report = ExposureReport(3, (bytes(32), b"\x01" * 32))
        decoded = ExposureReport.from_bytes(wrap(report.to_bytes()))
        assert decoded == report
        assert all(type(s) is bytes for s in decoded.seeds)

    def test_wire_format_rejects_truncation(self):
        blob = ExposureReport(0, (bytes(32),)).to_bytes()
        with pytest.raises(ValueError):
            ExposureReport.from_bytes(blob[:-1])

    @given(
        st.binary(max_size=120)
        | st.tuples(st.binary(min_size=8, max_size=8), st.lists(st.binary(min_size=32, max_size=32), max_size=4)).map(
            lambda t: t[0] + len(t[1]).to_bytes(4, "big") + b"".join(t[1])
        )
    )
    def test_wire_decoder_round_trips_or_rejects(self, data):
        # arbitrary bytes, plus well-framed ones (zero seeds included)
        try:
            report = ExposureReport.from_bytes(data)
        except ValueError:
            return
        assert report.to_bytes() == data

    def test_expansion_matches_schedule_comparison(self):
        # match-by-recomputation and direct schedule comparison agree
        rng = random.Random(5)
        chain = _chain(DailySeed(0, rng.randbytes(32)), 4)
        report = report_from_seeds(chain)
        via_set = report_id_set(report)
        via_schedules = {raw for s in chain for raw in epoch_ids(s.secret)}
        assert via_set == via_schedules

    def test_id_table_binds_each_id_to_its_day_and_epoch(self):
        rng = random.Random(6)
        report = report_from_seeds(_chain(DailySeed(2, rng.randbytes(32)), 3))
        table = report_id_table(report)
        assert list(table) == [2, 3, 4]
        for day, secret in zip(table, report.seeds):
            by_epoch, ids = table[day]
            assert by_epoch == [hashlib.sha256(secret + b"EPHID" + bytes([0, 0, 0, j])).digest()[:16] for j in range(96)]
            assert ids == set(by_epoch)
        assert set().union(*(ids for _, ids in table.values())) == report_id_set(report)


class TestForwardSecrecyShape:
    def test_api_surface_has_no_backward_derivation(self):
        # the module's public API: the only seed-to-seed operation moves
        # forward in time, so earlier seeds are unreachable from later ones
        import epitrace.crypto_ids as mod

        public = {n for n in dir(mod) if not n.startswith("_") and callable(getattr(mod, n))}
        derivers = {n for n in public if "derive" in n or "previous" in n or "invert" in n}
        assert derivers == {"derive_next_seed", "derive_epoch_id"}


class TestEscrow:
    def test_register_and_resolve_all_ids(self):
        table = EscrowTable()
        seed = DailySeed(2, b"\x07" * 32)
        table.escrow_register(seed, "phone-1")
        for eph in epoch_ids(seed.secret):
            assert table.resolve_digest(contact_digest(eph)) == "phone-1"

    def test_unregistered_id_resolves_to_nothing(self):
        table = EscrowTable()
        table.escrow_register(DailySeed(0, b"\x01" * 32), "phone-1")
        stray = epoch_ids(b"\x02" * 32)[0]
        assert table.resolve_digest(contact_digest(stray)) is None

    def test_disjoint_registrants_never_cross(self):
        rng = random.Random(11)
        table = EscrowTable()
        seeds = {f"phone-{k}": _chain(DailySeed(0, rng.randbytes(32)), 3) for k in range(4)}
        for token, chain in seeds.items():
            for s in chain:
                table.escrow_register(s, token)
        # brute force over every escrowed id
        for token, chain in seeds.items():
            for s in chain:
                for eph in epoch_ids(s.secret):
                    assert table.resolve_digest(contact_digest(eph)) == token

    def test_duplicate_registration_rejected(self):
        table = EscrowTable()
        seed = DailySeed(4, b"\x09" * 32)
        table.escrow_register(seed, "phone-2")
        with pytest.raises(DuplicateRegistration):
            table.escrow_register(seed, "phone-2")
        # same day under a different token is a different registration
        table.escrow_register(DailySeed(4, b"\x0a" * 32), "phone-3")


def test_digest_is_plain_sha256():
    eph = b"\x42" * 16
    assert contact_digest(eph) == hashlib.sha256(b"\x42" * 16).hexdigest()
