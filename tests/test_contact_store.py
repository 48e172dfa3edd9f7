"""Encounter log semantics, retention, and exposure matching vs. oracle."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitrace.contact_store import (
    ATTENUATION_CUTOFF,
    EXPOSURE_MIN_MINUTES,
    RETENTION_DAYS,
    ContactStore,
    EncounterRecord,
)
from epitrace.crypto_ids import DailySeed, derive_next_seed, report_from_seeds


def rec(observed=b"\x01" * 16, day=0, epoch=0, duration=15, attenuation=30):
    return EncounterRecord(observed, day, epoch, duration, attenuation)


def seed_chain(rng, first_day, days):
    out = [DailySeed(first_day, rng.randbytes(32))]
    for _ in range(days - 1):
        out.append(derive_next_seed(out[-1]))
    return out


def oracle_expand(report):
    """Independent re-derivation of every report ID (no epitrace code)."""
    ids = set()
    for secret in report.seeds:
        for j in range(96):
            digest = hashlib.sha256(secret + b"EPHID" + j.to_bytes(4, "big")).digest()
            ids.add(digest[:16])
    return ids


def oracle_check(store, report, min_minutes=EXPOSURE_MIN_MINUTES, cutoff=ATTENUATION_CUTOFF):
    """Brute force: expand everything, scan the store linearly, sum per day."""
    ids = oracle_expand(report)
    per_day = {}
    for r in store.records():
        if r.attenuation <= cutoff and r.observed in ids:
            minutes, epochs = per_day.setdefault(r.day, [0, set()])
            per_day[r.day][0] = minutes + r.duration_min
            per_day[r.day][1].add(r.epoch)
    return [
        (day, minutes, tuple(sorted(epochs)))
        for day, (minutes, epochs) in sorted(per_day.items())
        if minutes >= min_minutes
    ]


class TestRecording:
    def test_empty_plus_one(self):
        store = ContactStore()
        store.record_encounter(rec())
        assert len(store) == 1

    def test_duplicates_kept(self):
        store = ContactStore()
        store.record_encounter(rec())
        store.record_encounter(rec())
        assert len(store) == 2

    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError):
            rec(epoch=96)
        with pytest.raises(ValueError):
            rec(duration=0)
        with pytest.raises(ValueError):
            rec(duration=16)
        with pytest.raises(ValueError):
            rec(attenuation=101)
        with pytest.raises(ValueError):
            rec(observed=b"\x01" * 15)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epoch", 300),  # no byte holds it
            ("epoch", 100),  # a byte, but no epoch
            ("duration_min", 0),
            ("duration_min", 16),
            ("attenuation", 101),
            ("observed", b"\x02" * 15),
        ],
    )
    def test_reassigned_record_rejected_and_nothing_written(self, field, value):
        store = ContactStore([rec(observed=b"\x01" * 16, epoch=3)])
        before = (len(store), store.records(), store.export_lines())
        bad = rec(observed=b"\x02" * 16)
        setattr(bad, field, value)  # records are mutable after their own check
        with pytest.raises(ValueError, match=field):
            store.record_encounter(bad)
        assert (len(store), store.records(), store.export_lines()) == before
        good = rec(observed=b"\x03" * 16, epoch=5)
        store.record_encounter(good)
        assert store.records()[-1] == good
        assert [e.matched_epochs for e in store.check_exposure_ids({good.observed})] == [(5,)]

    @pytest.mark.parametrize(
        "field, value", [("day", 2.5), ("epoch", 3.5), ("duration_min", 3.5), ("attenuation", 30.0)]
    )
    @pytest.mark.parametrize("day", [0, 9])  # a day the store holds, and one it has not opened
    def test_non_int_field_rejected_and_nothing_written(self, field, value, day):
        store = ContactStore([rec(observed=b"\x01" * 16, epoch=3)])
        before = (len(store), store.records(), store.export_lines())
        bad = rec(observed=b"\x02" * 16, day=day)
        setattr(bad, field, value)  # within every range, so only its type is wrong
        with pytest.raises(TypeError):
            store.record_encounter(bad)
        with pytest.raises(TypeError):
            store.record_observations([bad.observed], bad.day, [bad.epoch], bad.duration_min, bad.attenuation)
        assert (len(store), store.records(), store.export_lines()) == before
        # later writes keep their own fields, and a day the failed write would
        # have opened is listed in the order it was first written
        store.record_encounter(rec(observed=b"\x03" * 16, day=1))
        store.record_encounter(rec(observed=b"\x04" * 16, day=day, epoch=7, duration=9, attenuation=20))
        store.record_observations([b"\x05" * 16], day, [5], 15, 30)
        later = [f"{day},7,9,20," + "04" * 16, f"{day},5,15,30," + "05" * 16]
        day_1 = ["1,0,15,30," + "03" * 16]
        assert store.export_lines() == before[2] + (later + day_1 if day == 0 else day_1 + later)


class TestPruning:
    def test_boundary_removed(self):
        store = ContactStore([rec(day=0)])
        store.prune(today=15)
        assert len(store) == 0

    def test_boundary_kept(self):
        store = ContactStore([rec(day=2)])
        store.prune(today=15)
        assert len(store) == 1

    def test_idempotent(self):
        rng = random.Random(0)
        store = ContactStore([rec(day=rng.randrange(30)) for _ in range(50)])
        store.prune(today=20)
        once = store.records()
        store.prune(today=20)
        assert store.records() == once


class TestExposureMatching:
    def test_empty_store(self):
        rng = random.Random(1)
        report = report_from_seeds(seed_chain(rng, 0, 3))
        assert ContactStore().check_exposure(report) == []

    def test_threshold_day_matches_other_does_not(self):
        rng = random.Random(2)
        chain = seed_chain(rng, 1, 2)
        report = report_from_seeds(chain)
        ids = sorted(oracle_expand(report))
        store = ContactStore()
        # day 1: one full close epoch (qualifies); day 2: 10 minutes (does not)
        day1_id = hashlib.sha256(chain[0].secret + b"EPHID" + (8).to_bytes(4, "big")).digest()[:16]
        day2_id = hashlib.sha256(chain[1].secret + b"EPHID" + (8).to_bytes(4, "big")).digest()[:16]
        assert day1_id in ids and day2_id in ids
        store.record_encounter(rec(observed=day1_id, day=1, epoch=8, duration=15))
        store.record_encounter(rec(observed=day2_id, day=2, epoch=8, duration=10))
        events = store.check_exposure(report)
        assert len(events) == 1
        assert events[0].day == 1
        assert events[0].cumulative_min == 15
        assert events[0].matched_epochs == (8,)

    def test_attenuation_filter(self):
        rng = random.Random(3)
        chain = seed_chain(rng, 0, 1)
        report = report_from_seeds(chain)
        an_id = next(iter(oracle_expand(report)))
        store = ContactStore([rec(observed=an_id, day=0, attenuation=80)])
        assert store.check_exposure(report) == []

    def test_minutes_accumulate_across_epochs(self):
        rng = random.Random(4)
        chain = seed_chain(rng, 0, 1)
        report = report_from_seeds(chain)
        ids = sorted(oracle_expand(report))
        store = ContactStore()
        store.record_encounter(rec(observed=ids[0], day=0, epoch=10, duration=8))
        store.record_encounter(rec(observed=ids[1], day=0, epoch=11, duration=8))
        events = store.check_exposure(report)
        assert len(events) == 1
        assert events[0].cumulative_min == 16
        assert events[0].matched_epochs == (10, 11)

    def test_matches_oracle_on_randomized_stores(self):
        rng = random.Random(77)
        for _ in range(60):
            chain = seed_chain(rng, rng.randrange(5), rng.randrange(1, 15))
            report = report_from_seeds(chain)
            pool = sorted(oracle_expand(report))
            store = ContactStore()
            for _ in range(rng.randrange(0, 400)):
                if rng.random() < 0.35:
                    observed = pool[rng.randrange(len(pool))]
                else:
                    observed = rng.randbytes(16)
                store.record_encounter(
                    rec(
                        observed=observed,
                        day=rng.randrange(report.first_day - 2, report.last_day + 3),
                        epoch=rng.randrange(96),
                        duration=rng.randrange(1, 16),
                        attenuation=rng.randrange(0, 101),
                    )
                )
            got = [(e.day, e.cumulative_min, e.matched_epochs) for e in store.check_exposure(report)]
            assert got == oracle_check(store, report)

    def test_prune_then_match_commutes(self):
        rng = random.Random(88)
        for _ in range(20):
            chain = seed_chain(rng, 0, 14)
            report = report_from_seeds(chain)
            pool = sorted(oracle_expand(report))
            records = [
                rec(
                    observed=pool[rng.randrange(len(pool))],
                    day=rng.randrange(0, 20),
                    epoch=rng.randrange(96),
                    duration=15,
                )
                for _ in range(80)
            ]
            today = 18
            pruned = ContactStore(list(records))
            pruned.prune(today)
            events_after_prune = pruned.check_exposure(report)

            full = ContactStore(list(records))
            cutoff = today - RETENTION_DAYS
            events_then_drop = [e for e in full.check_exposure(report) if e.day > cutoff]
            assert events_after_prune == events_then_drop


class TestContactDigests:
    def test_per_id_threshold(self):
        rng = random.Random(9)
        chain = seed_chain(rng, 0, 1)
        ids = sorted(oracle_expand(report_from_seeds(chain)))
        store = ContactStore()
        store.record_encounter(rec(observed=ids[0], day=0, duration=15))  # qualifies
        store.record_encounter(rec(observed=ids[1], day=0, duration=10))  # too short
        store.record_encounter(rec(observed=ids[2], day=0, duration=15, attenuation=90))  # too far
        digests = store.qualifying_contact_digests()
        assert digests == [hashlib.sha256(ids[0]).hexdigest()]

    def test_window_restriction(self):
        store = ContactStore()
        store.record_encounter(rec(observed=b"\x05" * 16, day=1))
        store.record_encounter(rec(observed=b"\x06" * 16, day=9))
        digests = store.qualifying_contact_digests(window=(0, 5))
        assert digests == [hashlib.sha256(b"\x05" * 16).hexdigest()]


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = random.Random(10)
        store = ContactStore()
        for _ in range(25):
            store.record_encounter(
                rec(
                    observed=rng.randbytes(16),
                    day=rng.randrange(10),
                    epoch=rng.randrange(96),
                    duration=rng.randrange(1, 16),
                    attenuation=rng.randrange(101),
                )
            )
        path = tmp_path / "store.csv"
        store.save(path)
        loaded = ContactStore.load(path)
        assert loaded.records() == store.records()

    def test_line_format(self):
        store = ContactStore([rec(observed=b"\xab" * 16, day=3, epoch=7, duration=12, attenuation=44)])
        assert store.export_lines() == ["3,7,12,44," + "ab" * 16]


def random_batches(rng, report, n_batches):
    """(observed IDs, day, epochs, duration, attenuation) batches with one
    epoch per ID, a third of the IDs drawn from the report, days written
    out of order.  Half the batches hold one epoch throughout, the others
    an arbitrary epoch per ID."""
    pool = sorted(oracle_expand(report))
    batches = []
    for _ in range(n_batches):
        observed = [
            pool[rng.randrange(len(pool))] if rng.random() < 0.35 else rng.randbytes(16)
            for _ in range(rng.randrange(0, 6))
        ]
        if rng.random() < 0.5:
            epochs = [rng.randrange(96)] * len(observed)
        else:
            epochs = [rng.randrange(96) for _ in observed]
        day = rng.randrange(report.first_day - 2, report.last_day + 3)
        batches.append((observed, day, epochs, rng.randrange(1, 16), rng.randrange(0, 101)))
    return batches


def stores_both_ways(batches):
    sequential, bulk = ContactStore(), ContactStore()
    for observed, day, epochs, duration, attenuation in batches:
        for obs, epoch in zip(observed, epochs):
            sequential.record_encounter(rec(obs, day, epoch, duration, attenuation))
        bulk.record_observations(observed, day, epochs, duration, attenuation)
    return sequential, bulk


class TestBulkRecording:
    def test_bulk_path_equals_sequential_path(self, tmp_path):
        rng = random.Random(123)
        for trial in range(40):
            chain = seed_chain(rng, rng.randrange(5), rng.randrange(1, 15))
            report = report_from_seeds(chain)
            sequential, bulk = stores_both_ways(random_batches(rng, report, rng.randrange(0, 120)))
            assert len(bulk) == len(sequential)
            assert bulk.records() == sequential.records()
            assert bulk.export_lines() == sequential.export_lines()
            bulk.save(tmp_path / f"bulk{trial}.csv")
            sequential.save(tmp_path / f"seq{trial}.csv")
            assert (tmp_path / f"bulk{trial}.csv").read_bytes() == (tmp_path / f"seq{trial}.csv").read_bytes()
            assert ContactStore.load(tmp_path / f"bulk{trial}.csv").records() == bulk.records()
            for store in (sequential, bulk):
                got = [(e.day, e.cumulative_min, e.matched_epochs) for e in store.check_exposure(report)]
                assert got == oracle_check(store, report)
            today = rng.randrange(report.first_day, report.last_day + 16)
            sequential.prune(today)
            bulk.prune(today)
            assert bulk.records() == sequential.records()
            assert all(r.day > today - RETENTION_DAYS for r in bulk.records())
            assert bulk.check_exposure(report) == sequential.check_exposure(report)

    @pytest.mark.parametrize(
        "epoch,duration,attenuation",
        [(96, 15, 30), (-1, 15, 30), (0, 0, 30), (0, 16, 30), (0, 15, 101), (0, 15, -1)],
    )
    def test_bulk_rejects_bad_fields(self, epoch, duration, attenuation):
        store = ContactStore()
        with pytest.raises(ValueError):
            store.record_observations([b"\x01" * 16], 0, [epoch], duration, attenuation)
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [96, -1, 255, 256, 1000])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_bad_epoch_anywhere_in_batch_writes_nothing(self, bad, where):
        store = ContactStore()
        store.record_observations([b"\x01" * 16], 0, [5], 15, 30)
        epochs = [0, 1, 2, 3, 94, 95, 95]
        epochs[where] = bad
        for packed in (epochs, tuple(epochs)):
            with pytest.raises(ValueError, match=f"epoch must be in 0..95, got {bad}"):
                store.record_observations([b"\x02" * 16] * 7, 0, packed, 15, 30)
        assert store.export_lines() == ["0,5,15,30," + "01" * 16]

    def test_epoch_column_must_match_the_ids(self):
        store = ContactStore()
        for epochs in ([], [1], b"\x01\x02\x03"):
            with pytest.raises(ValueError):
                store.record_observations([b"\x01" * 16, b"\x02" * 16], 0, epochs, 15, 30)
        # a bare epoch is not a column of epochs, whatever its value
        for epoch in (0, 1, 2):
            with pytest.raises(TypeError):
                store.record_observations([b"\x01" * 16, b"\x02" * 16], 0, epoch, 15, 30)
        assert len(store) == 0

    def test_epochs_given_as_bytes(self):
        store = ContactStore()
        store.record_observations([b"\x01" * 16, b"\x02" * 16], 4, bytes([7, 95]), 12, 40)
        assert store.export_lines() == ["4,7,12,40," + "01" * 16, "4,95,12,40," + "02" * 16]

    def test_bulk_rejects_bad_id_length_and_writes_nothing(self):
        store = ContactStore()
        store.record_observations([b"\x01" * 16], 0, [5], 15, 30)
        for bad in (b"\x02" * 15, b"\x02" * 17, b""):
            with pytest.raises(ValueError):
                store.record_observations([b"\x01" * 16, bad, b"\x03" * 16], 0, [6] * 3, 15, 30)
        assert store.export_lines() == ["0,5,15,30," + "01" * 16]

    def test_records_listed_day_by_day_in_first_write_order(self):
        store = ContactStore()
        store.record_encounter(rec(observed=b"\x01" * 16, day=5))
        store.record_encounter(rec(observed=b"\x02" * 16, day=3))
        store.record_encounter(rec(observed=b"\x03" * 16, day=5))
        assert [(r.day, r.observed[0]) for r in store.records()] == [(5, 1), (5, 3), (3, 2)]

    def test_day_of_only_distant_matches_emits_nothing(self):
        rng = random.Random(5)
        report = report_from_seeds(seed_chain(rng, 0, 2))
        ids = sorted(oracle_expand(report))
        store = ContactStore()
        # day 0: the only matches are too far away; day 1: no match at all
        store.record_observations(ids[:3], 0, [4] * 3, 15, ATTENUATION_CUTOFF + 1)
        store.record_observations([rng.randbytes(16)], 0, [5], 15, 10)
        store.record_observations([rng.randbytes(16)], 1, [5], 15, 10)
        assert store.check_exposure(report) == []
        assert oracle_check(store, report) == []


record_fields = st.builds(
    rec,
    observed=st.binary(min_size=16, max_size=16),
    day=st.integers(-(10**6), 10**6),
    epoch=st.integers(0, 95),
    duration=st.integers(1, 15),
    attenuation=st.integers(0, 100),
)


# a line with five fields, each possibly out of range or of the wrong length
framed_line = st.tuples(
    st.integers(-3, 200), st.integers(-3, 200), st.integers(-3, 200), st.integers(-3, 200), st.binary(max_size=18)
).map(lambda t: ",".join(map(str, t[:4])) + "," + t[4].hex())


class TestLoadBoundary:
    @given(st.text(max_size=300) | st.lists(framed_line, max_size=5).map("\n".join))
    def test_file_text_loads_or_raises_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("load") / "store.csv"
        path.write_bytes(text.encode())
        try:
            store = ContactStore.load(path)
        except ValueError:
            return
        # what loads is a valid store: it saves and loads back to itself
        store.save(path)
        assert ContactStore.load(path).export_lines() == store.export_lines()

    @given(st.lists(record_fields, max_size=40))
    def test_valid_records_save_load_and_export_the_same(self, tmp_path_factory, records):
        store = ContactStore(records)
        path = tmp_path_factory.mktemp("round") / "store.csv"
        store.save(path)
        loaded = ContactStore.load(path)
        assert loaded.export_lines() == store.export_lines()
        assert path.read_text().splitlines() == store.export_lines()
        assert loaded.records() == store.records()
