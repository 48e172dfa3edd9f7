"""Personal data store: collection, coarsening, policy, consent, erasure."""

import copy
import dataclasses
import json
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitrace.authority import Hotspot
from epitrace.contact_store import ContactStore, EncounterRecord
from epitrace.crypto_ids import epoch_ids
from epitrace.pds import (
    BIN_MINUTES,
    GRID_CELL_DEGREES,
    CellLabelMap,
    CoarsenedVisit,
    ConsentMissing,
    EraseScope,
    Granularity,
    GranularityTooFine,
    LocationPoint,
    MissingMap,
    PersonalDataStore,
    Purpose,
    SharePayload,
    SpatialLevel,
    TrackingStopped,
    coarsen,
    grid_cell,
    minimum_granularity,
)


ORACLE_POI = CellLabelMap({(0, 0): "cafe", (1, 1): "park"}, cell_deg=0.01, fallback_prefix="poi")
ORACLE_MUNI = CellLabelMap({(0, 0): "pisa"}, cell_deg=0.1)


def make_pds(**kwargs):
    return PersonalDataStore(rng=random.Random(0), **kwargs)


def random_walk(rng, extent_deg):
    """1 to 59 time-sorted fixes, uniform over [0, extent_deg)^2."""
    t = 0
    points = []
    for _ in range(rng.randrange(1, 60)):
        t += rng.randrange(30, 1200)
        points.append(LocationPoint(rng.uniform(0, extent_deg), rng.uniform(0, extent_deg), t))
    return points


def brute_force_visits(points, g, cell_of):
    """Walk the fixes and cut a visit at every (cell, bin) change, as
    (cell, bin_start, dwell_min) sorted by bin_start."""
    bin_seconds = g.bin_minutes * 60
    expected = []
    run = None
    for p in points:
        key = (cell_of(p.lat, p.lon), p.t // bin_seconds * bin_seconds)
        if run is not None and key == run[0]:
            run[2] = p.t
            continue
        if run is not None:
            expected.append(run)
        run = [key, p.t, p.t]
    if run is not None:
        expected.append(run)
    return sorted(
        [(key[0], key[1], max(1, math.ceil((end - start) / 60))) for key, start, end in expected],
        key=lambda e: e[1],
    )


class TestCollection:
    def test_append(self):
        pds = make_pds()
        pds.append_location(LocationPoint(43.7, 10.4, 100))
        assert len(pds) == 1

    def test_out_of_order_sorted(self):
        pds = make_pds()
        pds.append_location(LocationPoint(0.0, 0.0, 200))
        pds.append_location(LocationPoint(0.0, 0.0, 100))
        visits = pds.coarsened(Granularity.grid(0.01, 60))
        assert visits[0].bin_start <= visits[-1].bin_start
        assert pds._points[0].t == 100  # noqa: SLF001 - ordering is the contract

    def test_append_after_stop_rejected(self):
        pds = make_pds()
        pds.stop_tracking_and_erase(EraseScope.COLLECTION_ONLY)
        with pytest.raises(TrackingStopped):
            pds.append_location(LocationPoint(0.0, 0.0, 0))

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            LocationPoint(91.0, 0.0, 0)
        with pytest.raises(ValueError):
            LocationPoint(0.0, -181.0, 0)

    @pytest.mark.parametrize("t", [1.5, 100.0, True, "5", None, 2**63, -(2**63) - 1, 10**30])
    def test_t_must_be_an_int_in_signed_64_bit_range(self, t):
        with pytest.raises(ValueError, match="^t "):
            LocationPoint(0.0, 0.0, t)
        pds = make_pds()
        with pytest.raises(ValueError, match="^t "):
            pds.append_locations([0, t], [0.0, 0.0], [0.0, 0.0])
        assert len(pds) == 0

    def test_t_range_ends_accepted(self):
        pds = make_pds()
        pds.append_location(LocationPoint(0.0, 0.0, 2**63 - 1))
        pds.append_locations([-(2**63)], [0.0], [0.0])
        assert [p.t for p in pds._points] == [-(2**63), 2**63 - 1]  # noqa: SLF001

    def test_retention_drops_old_points(self):
        pds = PersonalDataStore(retention_days=1)
        pds.append_location(LocationPoint(0.0, 0.0, 0))
        pds.append_location(LocationPoint(0.0, 0.0, 3 * 86400))
        assert len(pds) == 1

    @pytest.mark.parametrize("bad", [-1, "2", 1.5, 2.0, True, False, [2]])
    def test_retention_days_rejects_non_int_or_negative(self, bad):
        # -1 would erase every fix, and "2" would fail only at the first append
        with pytest.raises(ValueError, match="^retention_days "):
            PersonalDataStore(retention_days=bad)

    def test_retention_days_zero_keeps_the_newest_instant(self):
        pds = PersonalDataStore(retention_days=0)
        pds.append_location(LocationPoint(0.0, 0.0, 0))
        pds.append_locations([5, 5], [0.0, 1.0], [0.0, 1.0])
        assert [(p.lat, p.t) for p in pds._points] == [(0.0, 5), (1.0, 5)]  # noqa: SLF001


class TestCoarsening:
    def test_grid_cell_example(self):
        assert grid_cell(43.7200, 10.4000, 0.01) == (4372, 1040)

    def test_temporal_floor(self):
        # 10:37 with 60-minute bins starts the 10:00 bin
        t = 10 * 3600 + 37 * 60
        visits = coarsen([LocationPoint(0.0, 0.0, t)], Granularity.grid(0.01, 60))
        assert visits[0].bin_start == 10 * 3600

    def test_run_of_points_merges(self):
        points = [LocationPoint(0.005, 0.005, 600 * k) for k in range(5)]
        visits = coarsen(points, Granularity.grid(0.01, 60))
        assert len(visits) == 1
        assert visits[0].cell == (0, 0)
        assert visits[0].dwell_min == 40  # spans 2400 s

    def test_merge_matches_brute_force(self):
        rng = random.Random(42)
        g = Granularity.grid(0.01, 15)
        for _ in range(50):
            points = random_walk(rng, 0.05)
            got = [(v.cell, v.bin_start, v.dwell_min) for v in coarsen(points, g)]
            assert sorted(got, key=lambda e: e[1]) == brute_force_visits(
                points, g, lambda lat, lon: grid_cell(lat, lon, 0.01)
            )

    @pytest.mark.parametrize(
        "g",
        [
            Granularity.grid(0.001, 15),
            Granularity.grid(0.1, 60),
            Granularity(SpatialLevel.POI, None, 60, ORACLE_POI),
            Granularity(SpatialLevel.MUNICIPALITY, None, 1440, ORACLE_MUNI),
        ],
        ids=lambda g: f"{g.spatial.value}-{g.cell_deg}-{g.bin_minutes}",
    )
    def test_every_spatial_level_matches_brute_force(self, g):
        rng = random.Random(43)
        for _ in range(30):
            points = random_walk(rng, 0.25)
            got = [(v.cell, v.bin_start, v.dwell_min) for v in coarsen(points, g)]
            assert sorted(got, key=lambda e: e[1]) == brute_force_visits(points, g, oracle_cell_of(g))

    def test_single_fix_has_min_dwell(self):
        visits = coarsen([LocationPoint(0.0, 0.0, 50)], Granularity.grid(0.001, 1))
        assert visits[0].dwell_min == 1

    def test_poi_requires_map(self):
        with pytest.raises(MissingMap, match="^poi granularity requires a label map"):
            Granularity(SpatialLevel.POI, None, 60)

    def test_municipality_requires_map(self):
        with pytest.raises(MissingMap, match="^municipality granularity requires a label map"):
            Granularity(SpatialLevel.MUNICIPALITY, None, 1440)
        with pytest.raises(MissingMap):  # a bare dict has no label_for, nor a fallback for unmapped cells
            Granularity(SpatialLevel.MUNICIPALITY, None, 1440, {(0, 0): "pisa"})

    def test_municipality_labels(self):
        g = Granularity(SpatialLevel.MUNICIPALITY, None, 1440, ORACLE_MUNI)
        visits = coarsen([LocationPoint(0.05, 0.05, 0), LocationPoint(0.15, 0.05, 60)], g)
        cells = {v.cell for v in visits}
        assert "pisa" in cells
        assert any(c.startswith("area:") for c in cells if c != "pisa")

    def test_coarser_granularity_never_more_cells_or_visits(self):
        rng = random.Random(7)
        muni = CellLabelMap({}, cell_deg=0.1)  # synthetic labels: exactly the 0.1 grid
        ladder = [
            Granularity.grid(0.001, 15),
            Granularity.grid(0.01, 60),
            Granularity.grid(0.1, 1440),
            Granularity(SpatialLevel.MUNICIPALITY, None, 1440, muni),
        ]
        for _ in range(25):
            t = 0
            points = []
            for _ in range(rng.randrange(2, 80)):
                t += rng.randrange(60, 3000)
                points.append(LocationPoint(rng.uniform(0, 0.4), rng.uniform(0, 0.4), t))
            stats = []
            for g in ladder:
                visits = coarsen(points, g)
                stats.append((len({v.cell for v in visits}), len(visits)))
            for (coarse_cells, coarse_visits), (fine_cells, fine_visits) in zip(stats[1:], stats):
                assert coarse_cells <= fine_cells
                assert coarse_visits <= fine_visits


class TestPolicyTable:
    def test_contact_upload_carries_no_location(self):
        assert minimum_granularity(Purpose.CONTACT_UPLOAD) is None

    def test_location_upload_minimum(self):
        g = minimum_granularity(Purpose.LOCATION_UPLOAD)
        assert g.spatial is SpatialLevel.GRID
        assert g.cell_deg == 0.01
        assert g.bin_minutes == 60

    def test_aggregate_minimum(self):
        g = minimum_granularity(Purpose.AGGREGATE_PARTICIPATION)
        assert g.cell_deg == 0.1
        assert g.bin_minutes == 1440

    def test_coarseness_order(self):
        ranks = [
            Granularity.grid(0.001, 60).spatial_rank,
            Granularity.grid(0.01, 60).spatial_rank,
            Granularity.grid(0.1, 60).spatial_rank,
            Granularity(SpatialLevel.POI, None, 60, ORACLE_POI).spatial_rank,
            Granularity(SpatialLevel.MUNICIPALITY, None, 60, ORACLE_MUNI).spatial_rank,
        ]
        assert ranks[0] < ranks[1] < ranks[2] <= ranks[3] <= ranks[4]

    def test_granularity_validation(self):
        with pytest.raises(ValueError):
            Granularity.grid(0.05, 60)
        with pytest.raises(ValueError):
            Granularity.grid(0.01, 45)
        with pytest.raises(ValueError):
            Granularity(SpatialLevel.POI, 0.01, 60, ORACLE_POI)

    def test_equal_and_hashed_with_a_map(self):
        g = Granularity(SpatialLevel.MUNICIPALITY, None, 1440, CellLabelMap({(0, 0): "pisa"}, cell_deg=0.1))
        assert g == Granularity(SpatialLevel.MUNICIPALITY, None, 1440, ORACLE_MUNI)
        assert {g: 1}[Granularity(SpatialLevel.MUNICIPALITY, None, 1440, ORACLE_MUNI)] == 1
        other_map = Granularity(SpatialLevel.MUNICIPALITY, None, 1440, CellLabelMap({}, cell_deg=0.1))
        assert other_map != g and hash(other_map) == hash(g)  # the map is compared, not hashed
        # the consent ledger records the level, not the map
        assert g.to_json() == {"spatial": "municipality", "cell_deg": None, "bin_minutes": 1440}


class TestSharePayloads:
    def test_too_fine_rejected(self):
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        with pytest.raises(GranularityTooFine):
            pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.001, 60), (0, 1))
        with pytest.raises(GranularityTooFine):
            pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 15), (0, 1))

    def test_contact_upload_must_not_carry_location(self):
        pds = make_pds()
        pds.grant_consent(Purpose.CONTACT_UPLOAD)
        with pytest.raises(GranularityTooFine):
            pds.build_share_payload(Purpose.CONTACT_UPLOAD, Granularity.grid(0.1, 1440), (0, 1))

    def test_consent_required(self):
        pds = make_pds()
        with pytest.raises(ConsentMissing):
            pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (0, 1))

    def test_empty_window_still_consented_and_pseudonymous(self):
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        payload, consent = pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (5, 6))
        assert payload.body == ()
        assert len(payload.pseudonym) == 16
        assert consent in pds.consent_ledger()

    def test_pseudonyms_fresh_across_builds(self):
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        seen = set()
        for _ in range(1000):
            payload, _ = pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (0, 0))
            seen.add(payload.pseudonym)
        assert len(seen) == 1000

    def test_window_restricts_body(self):
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        pds.append_location(LocationPoint(0.005, 0.005, 10))  # day 0
        pds.append_location(LocationPoint(0.005, 0.005, 3 * 86400 + 10))  # day 3
        payload, _ = pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (0, 1))
        assert len(payload.body) == 1
        assert payload.body[0].bin_start < 86400

    def test_contact_upload_body_is_digests(self):
        store = ContactStore()
        ids = epoch_ids(b"\x11" * 32)
        store.record_encounter(EncounterRecord(ids[4], 0, 4, 15, 30))
        pds = make_pds(contact_store=store)
        pds.grant_consent(Purpose.CONTACT_UPLOAD)
        payload, _ = pds.build_share_payload(Purpose.CONTACT_UPLOAD, None, (0, 0))
        assert len(payload.body) == 1
        assert isinstance(payload.body[0], str) and len(payload.body[0]) == 64

    def test_every_payload_has_exactly_one_consent(self):
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        pds.grant_consent(Purpose.CONTACT_UPLOAD)
        built = []
        for k in range(20):
            purpose = Purpose.LOCATION_UPLOAD if k % 2 else Purpose.CONTACT_UPLOAD
            g = Granularity.grid(0.01, 60) if purpose is Purpose.LOCATION_UPLOAD else None
            built.append(pds.build_share_payload(purpose, g, (0, 0), now=k))
        ledger = pds.consent_ledger()
        assert len(ledger) == len(built)
        for (payload, consent), entry in zip(built, ledger):
            assert consent is entry
            assert consent.purpose is payload.purpose


class TestErasure:
    def test_everything_clears_history(self):
        store = ContactStore([EncounterRecord(b"\x01" * 16, 0, 0, 15, 30)])
        pds = make_pds(contact_store=store)
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        pds.append_location(LocationPoint(0.0, 0.0, 0))
        pds.append_locations([5, 3], [1.0, 2.0], [3.0, 4.0])
        pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (0, 0), now=5)
        pds.stop_tracking_and_erase(EraseScope.EVERYTHING, now=9)
        assert len(pds) == 0
        assert pds._points == []  # noqa: SLF001
        assert len(store) == 0
        assert all(c.revoked_at == 9 for c in pds.consent_ledger())

    def test_collection_only_keeps_history(self):
        pds = make_pds()
        pds.append_location(LocationPoint(0.0, 0.0, 0))
        pds.stop_tracking_and_erase(EraseScope.COLLECTION_ONLY)
        assert len(pds) == 1
        with pytest.raises(TrackingStopped):
            pds.append_location(LocationPoint(0.0, 0.0, 1))


class TestNonLinkability:
    def test_pseudonyms_and_bodies_disjoint_from_ephids(self):
        rng = random.Random(3)
        broadcast = set()
        for _ in range(50):
            broadcast.update(epoch_ids(rng.randbytes(32)))
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        for k in range(200):
            pds.append_location(LocationPoint(rng.uniform(0, 0.1), rng.uniform(0, 0.1), k * 600))
        pseudonyms = set()
        for _ in range(50):
            payload, _ = pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (0, 2))
            pseudonyms.add(payload.pseudonym)
            blob = json.dumps(
                [[list(v.cell), v.bin_start, v.dwell_min] for v in payload.body]
            ).encode()
            for eph in broadcast:
                assert eph not in blob
        assert pseudonyms.isdisjoint(broadcast)


SCHEMA = "epitrace-pds v1"

# a lat,lon,t line whose fields may be out of range, non-finite or not ints
snapshot_line = st.tuples(
    st.floats() | st.integers(-200, 200),
    st.floats() | st.integers(-200, 200),
    st.integers(-(10**9), 10**9) | st.floats(),
).map(lambda t: ",".join(map(str, t)))


class TestSnapshots:
    def test_snapshot_round_trip(self, tmp_path):
        pds = make_pds()
        rng = random.Random(4)
        for k in range(30):
            pds.append_location(LocationPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), k * 100))
        path = tmp_path / "pds.snapshot"
        pds.save_snapshot(path)
        assert path.read_text().splitlines()[0] == "epitrace-pds v1"
        loaded = PersonalDataStore.load_snapshot(path)
        assert len(loaded) == 30
        assert loaded.coarsened(Granularity.grid(0.01, 60)) == pds.coarsened(Granularity.grid(0.01, 60))

    @given(st.text(max_size=300) | st.lists(snapshot_line, max_size=6).map(lambda ls: "\n".join([SCHEMA, *ls])))
    def test_file_text_loads_or_raises_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("snap") / "pds.snapshot"
        path.write_bytes(text.encode())
        try:
            pds = PersonalDataStore.load_snapshot(path)
        except ValueError:
            return
        data_lines = [line for line in path.read_text().splitlines()[1:] if line.strip()]
        assert len(pds) == len(data_lines)
        # what loads is a valid store: it saves and loads back to itself
        pds.save_snapshot(path)
        saved = path.read_text()
        PersonalDataStore.load_snapshot(path).save_snapshot(path)
        assert path.read_text() == saved

    @pytest.mark.parametrize("t", ["100000000000000000000", "1.5", "1e3"])
    def test_t_that_is_not_a_64_bit_int_raises_value_error(self, tmp_path, t):
        path = tmp_path / "pds.snapshot"
        path.write_text(f"{SCHEMA}\n0.0,0.0,{t}\n")
        with pytest.raises(ValueError):
            PersonalDataStore.load_snapshot(path)

    def test_consent_ledger_json_lines(self, tmp_path):
        pds = make_pds()
        pds.grant_consent(Purpose.LOCATION_UPLOAD)
        pds.build_share_payload(Purpose.LOCATION_UPLOAD, Granularity.grid(0.01, 60), (0, 0), now=3)
        pds.stop_tracking_and_erase(EraseScope.EVERYTHING, now=8)
        path = tmp_path / "consents.jsonl"
        pds.save_consent_ledger(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [
            {
                "purpose": "location_upload",
                "granularity": {"spatial": "grid", "cell_deg": 0.01, "bin_minutes": 60},
                "issued_at": 3,
                "revoked_at": 8,
            }
        ]


def test_raw_points_never_leave_the_module():
    """Grep-level audit: no other source module touches raw point storage."""
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src" / "epitrace"
    for path in src.glob("*.py"):
        if path.name == "pds.py":
            continue
        text = path.read_text()
        assert "_points" not in text, f"{path.name} reaches into raw location storage"


def reference_append(points, p, retention_days):
    """The list-filter retention prune, kept as the reference."""
    if points and p.t < points[-1].t:
        points.insert(next((i for i, q in enumerate(points) if q.t > p.t), len(points)), p)
    else:
        points.append(p)
    cutoff = points[-1].t - retention_days * 86400
    if points[0].t < cutoff:
        points[:] = [q for q in points if q.t >= cutoff]


class TestRetentionPrune:
    def test_point_at_cutoff_kept_and_one_second_older_dropped(self):
        pds = PersonalDataStore(retention_days=2)
        for t in (0, 1, 2, 5):
            pds.append_location(LocationPoint(0.0, 0.0, t))
        pds.append_location(LocationPoint(0.0, 0.0, 2 * 86400 + 1))
        assert [p.t for p in pds._points] == [1, 2, 5, 2 * 86400 + 1]  # noqa: SLF001

    def test_matches_list_filter_with_out_of_order_appends(self):
        rng = random.Random(31)
        for retention_days in (1, 2, 15):
            pds = PersonalDataStore(retention_days=retention_days)
            reference = []
            t = 0
            for _ in range(1500):
                t += rng.choice((0, 600, 3600, 86400 // 3))
                # a third of the points arrive late, some right at the cutoff
                late = rng.random() < 0.3
                pt = t - rng.choice((1, 3600, retention_days * 86400)) if late else t
                p = LocationPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), max(0, pt))
                pds.append_location(p)
                reference_append(reference, p, retention_days)
                assert pds._points == reference  # noqa: SLF001


def snapshot_text(pds, tmp_path):
    path = tmp_path / "pds.snapshot"
    pds.save_snapshot(path)
    return path.read_text()


COARSENINGS = [
    Granularity.grid(0.001, 15),
    Granularity.grid(0.01, 60),
    Granularity.grid(0.1, 1440),
    Granularity(SpatialLevel.MUNICIPALITY, None, 1440, ORACLE_MUNI),
]


class TestBulkAppend:
    def test_matches_single_appends(self, tmp_path):
        rng = random.Random(47)
        kinds = Counter()
        for retention_days in (1, 2, 15):
            bulk, single = (PersonalDataStore(retention_days=retention_days) for _ in range(2))
            t = 0
            for _ in range(150):
                ts = []
                for _ in range(rng.randrange(0, 30)):
                    t += rng.choice((0, 0, 600, 3600, 86400 // 3))
                    ts.append(t)
                # in order, starting before the newest fix, or shuffled
                kind = rng.choice(("ordered", "late", "shuffled"))
                kinds[kind] += 1
                if kind == "late" and ts:
                    ts[0] -= rng.choice((1, 3600, retention_days * 86400))
                elif kind == "shuffled":
                    rng.shuffle(ts)
                ts = [max(0, x) for x in ts]
                lats = [rng.uniform(-1, 1) for _ in ts]
                lons = [rng.uniform(-1, 1) for _ in ts]
                bulk.append_locations(ts, lats, lons)
                for lat, lon, x in zip(lats, lons, ts):
                    single.append_location(LocationPoint(lat, lon, x))
                assert bulk._points == single._points  # noqa: SLF001
                assert len(bulk) == len(single)
            for g in COARSENINGS:
                for window in (None, (0, t // 86400), (t // 86400 - 1, t // 86400)):
                    assert bulk.coarsened(g, window) == single.coarsened(g, window)
            assert snapshot_text(bulk, tmp_path) == snapshot_text(single, tmp_path)
        assert min(kinds.values()) > 50

    @pytest.mark.parametrize(
        "field, bad",
        [(field, v) for field in ("lat", "lon") for v in (math.nan, math.inf, -math.inf)]
        + [("lat", 90.5), ("lat", -91.0), ("lon", 180.5), ("lon", -181.0)],
    )
    @pytest.mark.parametrize("at", [0, 3, 9])
    def test_bad_value_anywhere_leaves_the_store_unchanged(self, tmp_path, field, bad, at):
        pds = PersonalDataStore(retention_days=2)
        pds.append_locations([0, 10], [0.5, 0.5], [0.5, 0.5])
        before = snapshot_text(pds, tmp_path)
        columns = {"ts": list(range(86400, 86410)), "lats": [0.0] * 10, "lons": [0.0] * 10}
        columns[field + "s"][at] = bad
        with pytest.raises(ValueError, match=f"^{field} "):
            pds.append_locations(**columns)
        assert snapshot_text(pds, tmp_path) == before

    def test_lengths_must_agree(self):
        pds = make_pds()
        with pytest.raises(ValueError):
            pds.append_locations([0, 1], [0.0], [0.0, 0.0])
        assert len(pds) == 0

    def test_stopped_store_rejects_a_batch(self, tmp_path):
        pds = make_pds()
        pds.append_locations([0], [0.0], [0.0])
        pds.stop_tracking_and_erase(EraseScope.COLLECTION_ONLY)
        before = snapshot_text(pds, tmp_path)
        with pytest.raises(TrackingStopped):
            pds.append_locations([1], [0.0], [0.0])
        assert snapshot_text(pds, tmp_path) == before


# -- the hand-written value-object constructors ----------------------------------

VALUE_OBJECTS = [
    (LocationPoint, (43.72, -10.4, 1_700_000_000)),
    (CoarsenedVisit, ((4372, 1040), 3600, 40)),
    (CoarsenedVisit, ("poi:cafe", -86400, 1)),
    (Hotspot, ((3, 4), 7200, 9)),
    (Hotspot, ("area:1:2", 0, 5)),
]


@pytest.mark.parametrize("cls, values", VALUE_OBJECTS, ids=lambda v: getattr(v, "__name__", None))
class TestValueObjects:
    """Each class writes its slots from a hand-written ``__init__``; the rest
    of what a frozen dataclass promises must hold as for a generated one."""

    def test_equal_and_hashed_as_its_field_tuple(self, cls, values):
        obj = cls(*values)
        assert dataclasses.astuple(obj) == values
        assert obj == cls(*values) and hash(obj) == hash(cls(*values)) == hash(values)
        assert {obj: 1}[cls(*values)] == 1
        assert obj != cls(values[0], values[1] + 60, *values[2:])

    def test_repr_and_frozen(self, cls, values):
        obj = cls(*values)
        names = [f.name for f in dataclasses.fields(cls)]
        assert repr(obj) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        assert not hasattr(obj, "__dict__")

    def test_replace_match_args_keywords_pickle_and_deepcopy(self, cls, values):
        obj = cls(*values)
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert cls.__match_args__ == names
        assert cls(**dict(zip(names, values))) == obj
        assert dataclasses.replace(obj, **{names[1]: values[1] + 60}) == cls(values[0], values[1] + 60, *values[2:])
        match obj:  # positional class patterns read __match_args__
            case LocationPoint(lat, lon, t) | CoarsenedVisit(lat, lon, t) | Hotspot(lat, lon, t):
                assert (lat, lon, t) == values[:3]
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(twin) is cls and twin == obj


VALID_FIELDS = {
    LocationPoint: {"lat": 0.0, "lon": 0.0, "t": 0},
    CoarsenedVisit: {"cell": (0, 0), "bin_start": 0, "dwell_min": 1},
    Granularity: {"spatial": SpatialLevel.GRID, "cell_deg": 0.01, "bin_minutes": 60, "labels": None},
    SharePayload: {"purpose": Purpose.LOCATION_UPLOAD, "pseudonym": b"\x02" * 16, "body": ()},
}
INVALID_VALUES = [
    *[(LocationPoint, "lat", v, "^lat ") for v in (math.nan, 90.5, -91.0, -math.inf)],
    *[(LocationPoint, "lon", v, "^lon ") for v in (math.nan, 180.5, -181.0, math.inf)],
    *[(LocationPoint, "t", v, "^t ") for v in (True, 1.0, 2**63, -(2**63) - 1)],
    *[(CoarsenedVisit, "dwell_min", v, "^dwell_min must be >= 1") for v in (0, -5)],
    # a float or bool bin width once passed the policy check
    *[(Granularity, "bin_minutes", v, "^bin_minutes must be an int") for v in (60.0, True)],
    (Granularity, "labels", ORACLE_MUNI, "^labels only apply to POI and municipality"),
    # a bytearray is unhashable at the authority; a str was counted
    *[(SharePayload, "pseudonym", v, "^pseudonym must be 16 bytes") for v in (bytearray(16), "p" * 16)],
]


@pytest.mark.parametrize("cls, field, value, message", INVALID_VALUES)
def test_every_check_runs_on_every_construction(cls, field, value, message):
    fields = {**VALID_FIELDS[cls], field: value}
    with pytest.raises(ValueError, match=message):
        cls(*fields.values())
    with pytest.raises(ValueError, match=message):
        cls(**fields)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cls(**VALID_FIELDS[cls]), **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("purpose", "location_upload"),  # failed at the authority with AttributeError, not WrongPurpose
        ("body", None),
        ("body", [CoarsenedVisit((0, 0), 0, 1)]),
        # a one-shot iterator passed the authority's check loop, stored nothing and used up the pseudonym
        ("body", iter([CoarsenedVisit((0, 0), 0, 1)])),
    ],
    ids=["str-purpose", "none-body", "list-body", "iterator-body"],
)
def test_share_payload_field_types(field, value):
    fields = {**VALID_FIELDS[SharePayload], field: value}
    with pytest.raises(TypeError, match=f"^{field} must be a "):
        SharePayload(**fields)
    with pytest.raises(TypeError, match=f"^{field} must be a "):
        dataclasses.replace(SharePayload(**VALID_FIELDS[SharePayload]), **{field: value})


# -- column-wise coarsening against the per-fix oracle ----------------------------

EVERY_GRANULARITY = [
    *[Granularity.grid(cell_deg, bin_minutes) for cell_deg in GRID_CELL_DEGREES for bin_minutes in BIN_MINUTES],
    *[
        Granularity(level, None, bin_minutes, labels)
        for level, labels in ((SpatialLevel.POI, ORACLE_POI), (SpatialLevel.MUNICIPALITY, ORACLE_MUNI))
        for bin_minutes in BIN_MINUTES
    ],
]


def oracle_cell_of(g):
    """The cell of a fix, from the level's own label map or from ``grid_cell``."""
    if g.spatial is SpatialLevel.GRID:
        return lambda lat, lon: grid_cell(lat, lon, g.cell_deg)
    return g.labels.label_for


# a few days around 0, with instants on and next to bin edges so that fixes
# share a t, a cell or a run; coordinates on and next to cell edges
fix_times = st.builds(
    lambda day, second: day * 86400 + second,
    st.integers(-1, 2),
    st.sampled_from([0, 1, 59, 60, 61, 899, 900, 3599, 3600, 43200, 86399]) | st.integers(0, 86399),
)
fix_coords = st.sampled_from([0.0, 0.0005, 0.001, 0.0099, 0.01, 0.05, 0.1, -0.0005, -0.01]) | st.floats(-0.3, 0.3)
fixes = st.lists(st.tuples(fix_coords, fix_coords, fix_times), max_size=40)


def as_tuples(visits):
    return [(v.cell, v.bin_start, v.dwell_min) for v in visits]


class TestColumnCoarsening:
    @given(fixes, st.sampled_from(EVERY_GRANULARITY))
    def test_coarsen_matches_the_oracle_in_any_order(self, fixes, g):
        points = [LocationPoint(*f) for f in fixes]
        got = as_tuples(coarsen(points, g))
        assert got == brute_force_visits(points, g, oracle_cell_of(g))

    @given(fixes, st.sampled_from(EVERY_GRANULARITY), st.integers(-2, 3), st.integers(-2, 3))
    def test_store_window_matches_the_oracle(self, fixes, g, first_day, last_day):
        """Windows may be empty (last_day < first_day, or no fix inside) and
        may start or end inside a run of fixes in one cell."""
        pds = make_pds()
        for f in fixes:
            pds.append_location(LocationPoint(*f))
        stored = sorted((LocationPoint(*f) for f in fixes), key=lambda p: p.t)  # stable: ties keep arrival order
        inside = [p for p in stored if first_day * 86400 <= p.t < (last_day + 1) * 86400]
        got = as_tuples(pds.coarsened(g, (first_day, last_day)))
        assert got == brute_force_visits(inside, g, oracle_cell_of(g))
        assert as_tuples(pds.coarsened(g, None)) == brute_force_visits(
            stored, g, oracle_cell_of(g)
        )

    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.integers(0, 6)), max_size=60))
    def test_appends_in_any_order_keep_a_stable_sort(self, fixes):
        """An in-order fix is appended, an out-of-order one inserted; either
        way a fix with an equal t goes after the fixes already stored."""
        pds = make_pds()
        for f in fixes:
            pds.append_location(LocationPoint(*f))
        assert pds._points == sorted((LocationPoint(*f) for f in fixes), key=lambda p: p.t)  # noqa: SLF001
