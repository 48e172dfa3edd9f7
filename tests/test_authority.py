"""Authority backend: board, escrow notification, density maps, risk maps."""

import json
import random
import tracemalloc
from bisect import bisect_right

import pytest

from epitrace.authority import (
    K_ANON,
    DensityMap,
    Hotspot,
    LocationStore,
    PublicBoard,
    RiskMap,
    WrongPurpose,
    detect_hotspots,
    export_density_csv,
    export_risk_csv,
    hotspots_to_json,
    publish_risk_map,
    resolve_and_notify,
)
from epitrace.crypto_ids import (
    DailySeed,
    EscrowTable,
    contact_digest,
    derive_next_seed,
    epoch_ids,
    report_from_seeds,
)
from epitrace.pds import CoarsenedVisit, Purpose, SharePayload
from epitrace.secure_agg import (
    CellIndexSpace,
    ContributionVector,
    aggregate,
    make_pairwise_seeds,
    mask_contribution,
    seeds_for,
)


def location_payload(visits, pseudonym=b"\x01" * 16):
    return SharePayload(Purpose.LOCATION_UPLOAD, pseudonym, tuple(visits))


def small_space():
    return CellIndexSpace(((0, 0), (0, 1), (1, 0), (1, 1)), (0, 3600, 7200), bin_seconds=3600)


class TestBoard:
    def test_publish_and_size(self):
        board = PublicBoard()
        board.publish_report(report_from_seeds([DailySeed(0, bytes(32))]), published_day=0)
        assert len(board) == 1

    def test_board_carries_no_location_surface(self):
        # type-level separation: the board's API cannot ingest payloads
        board = PublicBoard()
        assert not hasattr(board, "ingest_location_payload")
        assert not hasattr(board, "ingest_aggregate")


class TestResolveAndNotify:
    def test_empty_digests(self):
        assert resolve_and_notify(EscrowTable(), []) == set()

    def test_escrowed_digest_resolves(self):
        escrow = EscrowTable()
        seed = DailySeed(0, b"\x03" * 32)
        escrow.escrow_register(seed, "phone-9")
        # brute-force confirm against every escrowed id
        for eph in epoch_ids(seed.secret):
            assert resolve_and_notify(escrow, [contact_digest(eph)]) == {"phone-9"}

    def test_multiple_digests_dedup(self):
        escrow = EscrowTable()
        seed = DailySeed(0, b"\x04" * 32)
        escrow.escrow_register(seed, "phone-5")
        ids = epoch_ids(seed.secret)
        digests = [contact_digest(ids[0]), contact_digest(ids[1])]
        assert resolve_and_notify(escrow, digests) == {"phone-5"}


class TestIngestion:
    def test_visits_accumulate(self):
        store = LocationStore()
        visits = [CoarsenedVisit((0, 0), 0, 5)] * 3
        store.ingest_location_payload(location_payload(visits))
        assert store.infected_count_at((0, 0), 0) == 3

    def test_wrong_purpose_rejected(self):
        store = LocationStore()
        payload = SharePayload(Purpose.CONTACT_UPLOAD, b"\x02" * 16, ("ab" * 32,))
        with pytest.raises(WrongPurpose):
            store.ingest_location_payload(payload)

    def test_distinct_pseudonyms_add(self):
        store = LocationStore()
        store.ingest_location_payload(location_payload([CoarsenedVisit((0, 0), 0, 5)], b"\x01" * 16))
        store.ingest_location_payload(location_payload([CoarsenedVisit((0, 0), 0, 5)], b"\x02" * 16))
        assert store.infected_count_at((0, 0), 0) == 2

    def test_resubmission_within_window_deduped(self):
        store = LocationStore()
        payload = location_payload([CoarsenedVisit((0, 0), 0, 5)])
        store.ingest_location_payload(payload)
        store.ingest_location_payload(payload)
        assert store.infected_count_at((0, 0), 0) == 1
        store.close_upload_window()
        store.ingest_location_payload(payload)
        assert store.infected_count_at((0, 0), 0) == 2

    @pytest.mark.parametrize(
        "bad_idx,bad",
        [
            (1, "junk"),
            (0, None),
            (1, CoarsenedVisit((1, 1), "x", 5)),
            (2, CoarsenedVisit((1, 1), 3600.0, 5)),
            (1, CoarsenedVisit((1, 1), True, 5)),
            (2, CoarsenedVisit([1, 1], 0, 5)),
            (1, CoarsenedVisit((1, [1]), 0, 5)),
        ],
        ids=["not-a-visit", "none", "str-bin", "float-bin", "bool-bin", "list-cell", "cell-holding-a-list"],
    )
    def test_malformed_location_payload_stores_nothing(self, bad_idx, bad):
        space = small_space()
        store = LocationStore()
        store.ingest_location_payload(location_payload([CoarsenedVisit((0, 0), 0, 5)], b"\x01" * 16))
        before = store.build_density_map(space)
        good = [CoarsenedVisit((1, 1), 0, 5), CoarsenedVisit((1, 1), 3600, 5)]
        body = good[:bad_idx] + [bad] + good[bad_idx:]
        with pytest.raises(ValueError, match=f"entry {bad_idx} is "):
            store.ingest_location_payload(location_payload(body, b"\x02" * 16))
        assert store.build_density_map(space) == before
        assert store.infected_count_at((1, 1), 0) == 0
        # the pseudonym stays unused, so the good upload under it still counts
        store.ingest_location_payload(location_payload(good, b"\x02" * 16))
        assert store.infected_count_at((1, 1), 0) == store.infected_count_at((1, 1), 3600) == 1

    def test_body_that_is_not_a_sequence_leaves_pseudonym_unused(self):
        store = LocationStore()
        with pytest.raises(TypeError):
            store.ingest_location_payload(SharePayload(Purpose.LOCATION_UPLOAD, b"\x02" * 16, None))
        store.ingest_location_payload(location_payload([CoarsenedVisit((1, 1), 0, 5)], b"\x02" * 16))
        assert store.infected_count_at((1, 1), 0) == 1

    @pytest.mark.parametrize(
        "bad_idx,bad",
        [(2, -3), (2, 1.5), (2, True), (1, False), (2, "a"), (3, 1 << 32), (0, None)],
    )
    def test_bad_aggregate_stores_nothing(self, bad_idx, bad):
        space = small_space()
        store = LocationStore()
        store.ingest_aggregate(space, [7] + [0] * 11)
        before = store.build_density_map(space)
        sums = [5, 0, 0, 0] + [6] * 8
        sums[bad_idx] = bad
        with pytest.raises(ValueError, match=f"entry {bad_idx} is {bad!r}"):
            store.ingest_aggregate(space, sums)
        assert store.infected_count_at((0, 0), 0) == 7
        assert store.build_density_map(space) == before

    def test_aggregate_takes_counts_up_to_mask_modulus(self):
        space = small_space()
        store = LocationStore()
        store.ingest_aggregate(space, [(1 << 32) - 1] + [0] * 11)
        assert store.infected_count_at((0, 0), 0) == (1 << 32) - 1


class TestDensityMaps:
    def test_empty_store_all_zero(self):
        dmap = LocationStore().build_density_map(small_space())
        assert all(c == 0 for c in dmap.infected_counts)

    def test_suppression_rule(self):
        store = LocationStore()
        for k in range(12):
            store.ingest_location_payload(location_payload([CoarsenedVisit((0, 0), 0, 1)], bytes([k]) * 16))
        for k in range(4):
            store.ingest_location_payload(location_payload([CoarsenedVisit((0, 1), 0, 1)], bytes([100 + k]) * 16))
        dmap = store.build_density_map(small_space())
        idx_a = small_space().index_of((0, 0), 0)
        idx_b = small_space().index_of((0, 1), 0)
        assert dmap.infected_counts[idx_a] == 12
        assert dmap.infected_counts[idx_b] == 4  # retained internally
        published = dmap.published_counts()
        assert published[idx_a] == 12
        assert published[idx_b] == 0  # suppressed below the threshold

    def test_modality_equivalence_small(self):
        space = small_space()
        rng = random.Random(1)
        per_user_visits = [
            [CoarsenedVisit(space.cells[rng.randrange(4)], 3600 * rng.randrange(3), 1) for _ in range(6)]
            for _ in range(5)
        ]
        # modality A: plaintext payloads
        store_a = LocationStore()
        for uid, visits in enumerate(per_user_visits):
            store_a.ingest_location_payload(location_payload(visits, bytes([uid]) * 16))
        # modality B: masked shares of the same visits
        vectors = [
            ContributionVector.from_visits(space, [(v.cell, v.bin_start) for v in visits])
            for visits in per_user_visits
        ]
        seeds = make_pairwise_seeds(5, rng)
        shares = [mask_contribution(vectors[i], i, seeds_for(i, seeds), 5) for i in range(5)]
        sums = aggregate(shares, 5, space.dimension)
        store_b = LocationStore()
        store_b.ingest_aggregate(space, sums)
        map_a = store_a.build_density_map(space)
        map_b = store_b.build_density_map(space)
        assert map_a.infected_counts == map_b.infected_counts


class TestHotspots:
    def space1(self):
        return CellIndexSpace(((0, 0), (0, 1)), (0,), bin_seconds=3600)

    def test_all_zero_no_hotspots(self):
        dmap = DensityMap(small_space(), (0,) * 12)
        assert detect_hotspots(dmap) == []

    def test_threshold_rule(self):
        dmap = DensityMap(self.space1(), (4, 5))
        spots = detect_hotspots(dmap)
        assert spots == [Hotspot((0, 1), 0, 5)]

    def test_total_order(self):
        space = CellIndexSpace(((0, 0), (0, 1), (1, 0)), (0, 3600), bin_seconds=3600)
        counts = (7, 9, 7, 9, 7, 7)
        dmap = DensityMap(space, counts)
        spots = detect_hotspots(dmap)
        assert spots == detect_hotspots(dmap)
        ranks = [(h.infected_count, h.cell, h.bin_start) for h in spots]
        assert ranks == sorted(ranks, key=lambda r: (-r[0], r[1], r[2]))


class TestRiskMaps:
    def test_empty_map_all_zero(self):
        dmap = DensityMap(small_space(), (0,) * 12)
        rmap = publish_risk_map(dmap, [])
        assert set(rmap.levels) == {0}

    def test_single_hotspot_level3_rest_zero(self):
        counts = [0] * 12
        counts[0] = 9
        dmap = DensityMap(small_space(), tuple(counts))
        rmap = publish_risk_map(dmap, detect_hotspots(dmap))
        assert rmap.levels[0] == 3
        assert set(rmap.levels[1:]) == {0}

    def test_suppressed_counts_cannot_raise_level(self):
        # a cell below the anonymity threshold publishes as zero and must
        # stay at level 0 no matter how the terciles fall
        counts = [0] * 12
        counts[0] = 20  # hotspot
        counts[1] = 4  # suppressed
        counts[2] = 6
        counts[3] = 7
        counts[4] = 9
        dmap = DensityMap(small_space(), tuple(counts))
        rmap = publish_risk_map(dmap, detect_hotspots(dmap))
        assert rmap.levels[1] == 0
        assert rmap.levels[0] == 3

    def test_terciles_among_nonzero(self):
        counts = [0] * 12
        counts[1], counts[2], counts[3] = 5, 6, 7
        dmap = DensityMap(small_space(), tuple(counts))
        rmap = publish_risk_map(dmap, [])  # pretend none qualified as hotspots
        assert rmap.levels[3] == 2  # top tercile
        assert rmap.levels[2] == 1  # middle
        assert rmap.levels[1] == 0  # bottom
        assert rmap.levels[0] == 0  # zero stays zero

    def test_level_lookup(self):
        counts = [0] * 12
        counts[0] = 9
        dmap = DensityMap(small_space(), tuple(counts))
        rmap = publish_risk_map(dmap, detect_hotspots(dmap))
        assert rmap.level_at((0, 0), 0) == 3
        assert rmap.level_at((0, 0), 3599) == 3
        assert rmap.level_at((9, 9), 0) == 0  # outside the space


class TestExports:
    def test_density_csv_is_published_view(self, tmp_path):
        store = LocationStore()
        for k in range(3):
            store.ingest_location_payload(location_payload([CoarsenedVisit((0, 0), 0, 1)], bytes([k]) * 16))
        dmap = store.build_density_map(small_space())
        path = tmp_path / "density.csv"
        export_density_csv(dmap, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_x,cell_y,bin_start,count"
        counts = [int(line.split(",")[3]) for line in lines[1:]]
        assert all(c == 0 for c in counts)  # 3 < K_ANON, suppressed

    def test_risk_csv(self, tmp_path):
        dmap = DensityMap(small_space(), (9,) + (0,) * 11)
        rmap = publish_risk_map(dmap, detect_hotspots(dmap))
        path = tmp_path / "risk.csv"
        export_risk_csv(rmap, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_x,cell_y,bin_start,level"
        assert lines[1] == "0,0,0,3"

    def test_hotspots_json(self):
        dmap = DensityMap(CellIndexSpace(((2, 3),), (0,), bin_seconds=3600), (8,))
        spots = detect_hotspots(dmap)
        rows = json.loads(hotspots_to_json(spots))
        assert rows == [{"cell": [2, 3], "bin_start": 0, "infected_count": 8}]


# -- dense CSV exports vs. the per-entry reference writer ----------------------


def ref_write_dense_csv(space, values, column, path):
    """The per-entry writer: one coordinate lookup and one f-string per row,
    the whole file built in memory."""
    lines = [f"cell_x,cell_y,bin_start,{column}"]
    for idx, value in enumerate(values):
        cell, bin_start = space.coordinate(idx)
        x, y = cell if isinstance(cell, tuple) and len(cell) == 2 else (cell, "")
        lines.append(f"{x},{y},{bin_start},{value}")
    path.write_text("\n".join(lines) + "\n")


def random_cells(rng, kind, n):
    """n distinct cells of one kind; the str cells carry commas, braces and
    non-ASCII text, which a template-based formatter would get wrong."""
    make = {
        "grid": lambda: (rng.randrange(-5, 60), rng.randrange(60)),
        "int": lambda: rng.randrange(-(10**12), 10**12),
        "str": lambda: rng.choice(("cell", "z{0}", "a,b", "é", "{}", "%s")) + str(rng.randrange(10**6)),
        "triple": lambda: (rng.randrange(9), rng.randrange(9), rng.randrange(9)),
    }[kind]
    cells = []
    while len(cells) < n:
        if (cell := make()) not in cells:
            cells.append(cell)
    return tuple(cells)


def random_export_spaces(rng):
    for kind in ("grid", "int", "str", "triple"):
        for n_cells, n_bins in ((0, 3), (4, 0), (0, 0), (1, 1), (1, 7), (rng.randrange(2, 30), rng.randrange(2, 50))):
            start = rng.randrange(-86400, 86400)
            yield CellIndexSpace(random_cells(rng, kind, n_cells), tuple(start + 3600 * b for b in range(n_bins)), 3600)


class TestDenseExportBytes:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bytes_as_reference(self, seed, tmp_path):
        rng = random.Random(seed)
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        for space in random_export_spaces(rng):
            for top in (3, 4, 255, 70000, 2**40):  # counts above a byte too
                values = tuple(rng.choice((0, 0, rng.randrange(top + 1))) for _ in range(space.dimension))
                rmap = RiskMap(space, values)
                export_risk_csv(rmap, new)
                ref_write_dense_csv(space, rmap.levels, "level", ref)
                assert new.read_bytes() == ref.read_bytes()
                dmap = DensityMap(space, values)
                export_density_csv(dmap, new)
                ref_write_dense_csv(space, dmap.published_counts(), "count", ref)
                assert new.read_bytes() == ref.read_bytes()

    def test_empty_space_writes_header_only(self, tmp_path):
        path = tmp_path / "risk.csv"
        for space in (CellIndexSpace((), (0, 3600)), CellIndexSpace(((0, 0), (0, 1)), ())):
            export_risk_csv(RiskMap(space, ()), path)
            assert path.read_bytes() == b"cell_x,cell_y,bin_start,level\n"

    def test_protocol_ops_sized_map(self, tmp_path):
        rng = random.Random(7)
        space = CellIndexSpace(tuple((x, y) for x in range(20) for y in range(20)), tuple(range(0, 672 * 3600, 3600)))
        rmap = RiskMap(space, tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(space.dimension)))
        dmap = DensityMap(space, tuple(rng.choice((0, 0, 0, 1, 4, 5, 9, 300)) for _ in range(space.dimension)))
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        for export, exported, values, column in (
            (export_risk_csv, rmap, rmap.levels, "level"),
            (export_density_csv, dmap, dmap.published_counts(), "count"),
        ):
            ref_write_dense_csv(space, values, column, ref)
            export(exported, new)
            assert new.read_bytes() == ref.read_bytes()
            # memory holds one cell's block of 672 rows, about 10 kB; the whole
            # file built in memory peaks near 26 MB, and a list of every
            # published count alone takes 2.1 MB
            tracemalloc.start()
            try:
                export(exported, new)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000


class TestChannelSeparation:
    def test_board_and_location_store_share_no_identifiers(self):
        rng = random.Random(6)
        board = PublicBoard()
        chain = [DailySeed(0, rng.randbytes(32))]
        for _ in range(13):
            chain.append(derive_next_seed(chain[-1]))
        board.publish_report(report_from_seeds(chain), published_day=13)
        store = LocationStore()
        pseudonyms = {rng.randbytes(16) for _ in range(40)}
        for p in pseudonyms:
            store.ingest_location_payload(location_payload([CoarsenedVisit((1, 1), 0, 1)], p))
        assert board.identifier_set().isdisjoint(pseudonyms)


# -- publication pass vs. the per-index reference loops ------------------------

DAY = 86400


def ref_index_of(space, cell, t):
    """index_of by a scan of the cells and a bisect of the bins."""
    if cell not in space.cells:
        return None
    i = bisect_right(space.bins, t) - 1
    if i < 0 or t >= space.bins[i] + space.bin_seconds:
        return None
    return space.cells.index(cell) * len(space.bins) + i


def ref_bucket(keyed, space):
    out = [0] * space.dimension
    for (cell, t), n in keyed.items():
        idx = ref_index_of(space, cell, t)
        if idx is not None:
            out[idx] += n
    return out


def ref_hotspots(dmap, k_anon):
    found = []
    for idx, count in enumerate(dmap.infected_counts):
        if count >= k_anon:
            cell, bin_start = dmap.space.coordinate(idx)
            found.append(Hotspot(cell, bin_start, count))
    found.sort(key=lambda h: (-h.infected_count, h.cell, h.bin_start))
    return found


def ref_levels(dmap, hotspots, k_anon):
    published = [c if c >= k_anon else 0 for c in dmap.infected_counts]
    hot = {(h.cell, h.bin_start) for h in hotspots}
    hot_idx = {i for i in range(dmap.space.dimension) if dmap.space.coordinate(i) in hot}
    nonzero = sorted(published[i] for i in range(len(published)) if published[i] > 0 and i not in hot_idx)
    levels = [0] * dmap.space.dimension
    for i in hot_idx:
        levels[i] = 3
    if nonzero:
        m = len(nonzero)
        upper = nonzero[(2 * m) // 3] if (2 * m) // 3 < m else nonzero[-1]
        lower = nonzero[m // 3]
        for i, count in enumerate(published):
            if i in hot_idx or count == 0:
                continue
            if count >= upper:
                levels[i] = 2
            elif count >= lower:
                levels[i] = 1
    return tuple(levels)


GRID = tuple((x, y) for x in range(5) for y in range(5))
HOURLY = CellIndexSpace(GRID, tuple(h * 3600 for h in range(48)), 3600)
QUERY_SPACES = {
    "hourly": HOURLY,
    "partial": CellIndexSpace(GRID[3:20] + ((9, 9),), tuple(h * 3600 for h in range(6, 40)), 3600),
    "daily": CellIndexSpace(GRID, (0, DAY), DAY),
    "offset-half-hours": CellIndexSpace(GRID, tuple(h * 3600 + 900 for h in range(0, 48, 2)), 1800),
}


def random_store(rng, density):
    """A LocationStore plus the (cell, time) -> count dict it holds, built
    from payloads (some off the hour) and an hourly aggregate."""
    infected = {}
    store = LocationStore()
    for uid in range(12):
        visits = [
            CoarsenedVisit(rng.choice(GRID), rng.randrange(48) * 3600 + rng.choice((0, 0, 0, 1200)), 1)
            for _ in range(rng.randrange(30))
        ]
        store.ingest_location_payload(location_payload(visits, bytes([uid]) * 16))
        for v in visits:
            infected[(v.cell, v.bin_start)] = infected.get((v.cell, v.bin_start), 0) + 1
    sums = [rng.choice((1, 4, 6, 9, 30, 200)) if rng.random() < density else 0 for _ in range(HOURLY.dimension)]
    store.ingest_aggregate(HOURLY, sums)
    for idx, n in enumerate(sums):
        if n:
            key = HOURLY.coordinate(idx)
            infected[key] = infected.get(key, 0) + n
    return store, infected


class TestPublicationPassMatchesReference:
    @pytest.mark.parametrize("space_name", sorted(QUERY_SPACES))
    @pytest.mark.parametrize("density", [0.3, 0.6, 0.0])
    def test_seeded_maps(self, space_name, density):
        space = QUERY_SPACES[space_name]
        for seed in range(8):
            rng = random.Random(seed)
            store, infected = random_store(rng, density)
            dmap = store.build_density_map(space)
            assert dmap.infected_counts == tuple(ref_bucket(infected, space))
            hotspots = detect_hotspots(dmap)
            assert hotspots == ref_hotspots(dmap, K_ANON)
            extra = [
                Hotspot((7, 7), space.bins[0], 99),  # cell outside the space
                Hotspot(space.cells[0], space.bins[0] + 1, 99),  # inside a bin, not its start
                Hotspot(space.cells[-1], space.bins[-1], 1),
            ]
            for spots in (hotspots, hotspots + extra, extra, []):
                assert publish_risk_map(dmap, spots).levels == ref_levels(dmap, spots, K_ANON)
            assert publish_risk_map(dmap, extra).levels[space.index_of(space.cells[0], space.bins[0])] != 3

    def test_empty_map(self):
        dmap = LocationStore().build_density_map(HOURLY)
        assert detect_hotspots(dmap) == ref_hotspots(dmap, 5) == []
        assert publish_risk_map(dmap, []).levels == ref_levels(dmap, [], 5)
