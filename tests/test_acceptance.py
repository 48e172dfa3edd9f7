"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report (several criteria run multi-seed simulations and take minutes).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import hashlib
import heapq
import json
import math
import random
import time
from dataclasses import replace

import pytest
from scipy import stats

from epitrace.authority import (
    K_ANON,
    DensityMap,
    LocationStore,
    detect_hotspots,
    export_density_csv,
    hotspots_to_json,
    publish_risk_map,
)
from epitrace.cli import EXIT_OK, main
from epitrace.contact_store import ContactStore, EncounterRecord
from epitrace.crypto_ids import DailySeed, derive_next_seed, report_from_seeds
from epitrace.pds import CoarsenedVisit, Purpose, SharePayload
from epitrace.secure_agg import (
    CellIndexSpace,
    ContributionVector,
    aggregate,
    make_pairwise_seeds,
    mask_contribution,
    pairwise_mask,
    seeds_for,
)
from epitrace.self_awareness import route_cost, safer_route
from epitrace.sim import Intervention, ScenarioConfig, Simulation, default_shared_cells

# calibrated epidemic defaults shared by the simulation criteria; the
# baseline (no tracing) reproduces a generation-0 R_eff inside [1.5, 2.0]
EPI_BASE = ScenarioConfig(
    n_agents=300,
    width=18,
    height=18,
    adoption=0.0,
    beta_contact=0.012,
    beta_fomite=0.0,
    intervention=Intervention.NONE,
    shared_space_cells=default_shared_cells(18, 18, 3),
    horizon_days=45,
    n_index_cases=5,
    n_workplaces=100,
    e_mean_days=3.0,
    i_mean_days=5.0,
    test_delay_days=2.0,
)

N_SEEDS = 20


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: protocol correctness vs. brute-force oracle -----------------


def _oracle_id(secret, epoch):
    return hashlib.sha256(secret + b"EPHID" + epoch.to_bytes(4, "big")).digest()[:16]


def _oracle_events(store, report_obj):
    """Brute force: each record against the report's ID for its own day and epoch."""
    own = {}  # (day, epoch) -> the report's ID there, derived once
    per_day = {}
    for r in store.records():
        if r.attenuation > 60 or not report_obj.first_day <= r.day <= report_obj.last_day:
            continue
        key = (r.day, r.epoch)
        if key not in own:
            own[key] = _oracle_id(report_obj.seeds[r.day - report_obj.first_day], r.epoch)
        if r.observed == own[key]:
            minutes, epochs = per_day.setdefault(r.day, (0, set()))
            per_day[r.day] = (minutes + r.duration_min, epochs | {r.epoch})
    return [
        (day, minutes, tuple(sorted(epochs)))
        for day, (minutes, epochs) in sorted(per_day.items())
        if minutes >= 15
    ]


def test_criterion_1_exposure_matching_oracle():
    rng = random.Random(2024)
    sizes = [rng.randrange(0, 1500) for _ in range(970)] + [5000] * 25 + [10_000] * 5
    rng.shuffle(sizes)
    started = time.monotonic()
    checked = events = 0
    for size in sizes:
        chain = [DailySeed(rng.randrange(3), rng.randbytes(32))]
        for _ in range(rng.randrange(0, 14)):
            chain.append(derive_next_seed(chain[-1]))
        report_obj = report_from_seeds(chain)
        first, last = report_obj.first_day, report_obj.last_day
        ids = {(d, e): _oracle_id(s, e) for d, s in enumerate(report_obj.seeds, first) for e in range(96)}
        keys = list(ids)
        store = ContactStore()
        for _ in range(size):
            day, epoch, draw = rng.randrange(0, last + 4), rng.randrange(96), rng.random()
            if draw < 0.1 and first <= day <= last:
                observed = ids[day, epoch]  # heard in its own day and epoch: a match
            elif draw < 0.2:
                k = rng.randrange(len(keys))
                if keys[k] == (day, epoch):
                    k = (k + 1) % len(keys)
                observed = ids[keys[k]]  # a replay, heard on another day or in another epoch: no match
            else:
                observed = rng.randbytes(16)
            store.record_encounter(
                EncounterRecord(observed, day, epoch, rng.randrange(1, 16), rng.randrange(0, 101))
            )
        got = [(e.day, e.cumulative_min, e.matched_epochs) for e in store.check_exposure(report_obj)]
        assert got == _oracle_events(store, report_obj), f"mismatch on store of {size} records"
        checked += 1
        events += len(got)
    elapsed = time.monotonic() - started
    report(
        "criterion 1 (protocol correctness)",
        checked == 1000 and events > 0 and elapsed < 10.0,
        f"{checked} randomized store/report pairs ({events} exposure days), zero mismatches, {elapsed:.1f}s < 10s",
    )


# -- criterion 2: secure aggregation exactness ---------------------------------


def _flat_space(d):
    return CellIndexSpace(tuple(range(d)), (0,), bin_seconds=60)


def _round_trip(rng, n, d, bound):
    space = _flat_space(d)
    vectors = [ContributionVector(space, tuple(rng.randrange(bound) for _ in range(d))) for _ in range(n)]
    seeds = make_pairwise_seeds(n, rng)
    shares = [mask_contribution(vectors[i], i, seeds_for(i, seeds), n) for i in range(n)]
    result = aggregate(shares, n, d)
    return result == [sum(v.counts[k] for v in vectors) for k in range(d)]


def test_criterion_2_aggregation_exactness():
    rng = random.Random(7)
    exhaustive = 0
    for n in range(1, 7):
        for d in range(1, 5):
            assert _round_trip(rng, n, d, bound=1 << 16), f"exhaustive case n={n} D={d}"
            assert _round_trip(rng, n, d, bound=3), f"small-value case n={n} D={d}"
            exhaustive += 1
    larger = 0
    for _ in range(100):
        n = rng.randrange(7, 51)
        d = min(1000, int(10 ** rng.uniform(0.7, 3.0)))
        assert _round_trip(rng, n, d, bound=1 << 16), f"random case n={n} D={d}"
        larger += 1
    report(
        "criterion 2 (aggregation exactness)",
        exhaustive == 24 and larger == 100,
        f"{exhaustive} exhaustive (n,D) cases x2 value patterns + {larger} random large cases, zero mismatches",
    )


# -- criterion 3: mask hiding (uniformity) --------------------------------------


def test_criterion_3_mask_uniformity():
    rng = random.Random(99)
    buckets = [0] * 256
    total = 100_000
    per_seed = 1000
    for _ in range(total // per_seed):
        for word in pairwise_mask(rng.randbytes(32), per_seed):
            buckets[word % 256] += 1
    chi = stats.chisquare(buckets)
    report(
        "criterion 3 (mask hiding)",
        chi.pvalue > 0.001,
        f"chi-square over {total} mask words, 256 buckets: p={chi.pvalue:.4f} > 0.001",
    )


# -- criterion 4: channel non-linkability over a full run -----------------------


def test_criterion_4_non_linkability_full_run():
    cfg = ScenarioConfig(
        n_agents=500,
        width=20,
        height=20,
        adoption=0.6,
        beta_contact=0.012,
        intervention=Intervention.CONTACT_AND_LOCATION,
        shared_space_cells=default_shared_cells(20, 20, 4),
        horizon_days=120,
        n_index_cases=5,
        n_workplaces=160,
        test_delay_days=2.0,
        seed=42,
    )
    sim = Simulation(cfg)
    sim.run()
    contact_ids = sim.contact_channel_identifiers()
    location_ids = sim.location_channel_identifiers()
    overlap = contact_ids & location_ids
    report(
        "criterion 4 (non-linkability)",
        bool(contact_ids) and bool(location_ids) and not overlap,
        f"{len(contact_ids)} contact-channel ids vs {len(location_ids)} location-channel ids, "
        f"{len(overlap)} intersections over a 120-day 500-agent run",
    )


# -- criterion 5: critical-mass effect ------------------------------------------


def test_criterion_5_critical_mass():
    mobility = ScenarioConfig(
        n_agents=400,
        width=20,
        height=20,
        adoption=0.0,
        beta_contact=0.0,
        intervention=Intervention.NONE,
        shared_space_cells=default_shared_cells(20, 20, 4),
        horizon_days=12,
        n_index_cases=0,
        n_workplaces=130,
    )
    detail = []
    worst = 0.0
    for p in (0.2, 0.4, 0.6, 0.8):
        total = detectable = 0
        for seed in range(4):
            m = Simulation(replace(mobility, adoption=p, seed=seed)).run()
            total += m.contact_pairs
            detectable += round(m.detectable_pair_fraction * m.contact_pairs)
        fraction = detectable / total
        diff = abs(fraction - p * p)
        worst = max(worst, diff)
        assert total >= 10_000, f"only {total} pairs at p={p}"
        assert diff <= 0.02, f"p={p}: fraction {fraction:.4f} vs {p * p:.4f}"
        detail.append(f"p={p}: {fraction:.4f}~{p * p:.4f} ({total} pairs)")

    wins = losses = 0
    for seed in range(N_SEEDS):
        arms = {}
        for p in (0.0, 1.0):
            cfg = replace(
                EPI_BASE,
                adoption=p,
                intervention=Intervention.CONTACT_TRACING,
                horizon_days=35,
                seed=300 + seed,
            )
            arms[p] = Simulation(cfg).run().attack_rate
        if arms[1.0] < arms[0.0]:
            wins += 1
        elif arms[1.0] > arms[0.0]:
            losses += 1
    sign_p = stats.binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue if wins + losses else 1.0
    report(
        "criterion 5 (critical mass)",
        worst <= 0.02 and sign_p < 0.05,
        "; ".join(detail) + f"; attack-rate sign test p={sign_p:.2e} ({wins} of {wins + losses} seeds lower at p=1)",
    )


# -- criterion 6: fomite gap -----------------------------------------------------


FOMITE_BASE = ScenarioConfig(
    n_agents=500,
    width=20,
    height=20,
    adoption=0.9,
    beta_contact=0.0,
    beta_fomite=0.05,
    deposit_rate=1.0,
    decay_half_life_days=0.5,
    intervention=Intervention.CONTACT_TRACING,
    shared_space_cells=default_shared_cells(20, 20, 4),
    horizon_days=50,
    n_index_cases=5,
    n_workplaces=0,
    test_delay_days=2.0,
    seed=3,
)


def test_criterion_6_fomite_gap():
    t0 = time.monotonic()
    contact_only = Simulation(FOMITE_BASE)
    m_contact = contact_only.run()
    t_contact = time.monotonic() - t0

    t0 = time.monotonic()
    located = Simulation(replace(FOMITE_BASE, intervention=Intervention.CONTACT_AND_LOCATION))
    m_located = located.run()
    t_located = time.monotonic() - t0

    truth = contact_only.ground_truth_fomite_cells()
    ok = (
        bool(truth)
        and m_contact.traced_fraction == 0.0
        and m_contact.hotspot_recall == 0.0
        and m_located.hotspot_recall is not None
        and m_located.hotspot_recall >= 0.5
        and t_contact < 60.0
        and t_located < 60.0
    )
    report(
        "criterion 6 (fomite gap)",
        ok,
        f"contact-only traced_fraction={m_contact.traced_fraction} & detects {m_contact.hotspot_recall:.0%} "
        f"of {len(truth)} fomite sites; location mode recall={m_located.hotspot_recall:.2f} "
        f"(precision={m_located.hotspot_precision}); runtimes {t_contact:.0f}s/{t_located:.0f}s < 60s at N=500",
    )


# -- criterion 7: R_eff crossover under instantaneous tracing ---------------------


def _averaged_generation_series(cfg, seeds, generations=4):
    rows = []
    for seed in seeds:
        m = Simulation(replace(cfg, seed=seed)).run()
        series = list(m.r_eff_by_generation[:generations])
        series += [0.0] * (generations - len(series))
        rows.append(series)
    return [sum(col) / len(col) for col in zip(*rows)]


def test_criterion_7_r_eff_crossover():
    seeds = range(N_SEEDS)
    baseline = _averaged_generation_series(EPI_BASE, seeds, generations=1)
    calibrated = 1.5 <= baseline[0] <= 2.0

    traced_cfg = replace(
        EPI_BASE,
        adoption=1.0,
        test_delay_days=0.0,
        intervention=Intervention.CONTACT_TRACING,
        horizon_days=20,
    )
    traced = _averaged_generation_series(traced_cfg, seeds)
    crossover_gen = next((g for g, v in enumerate(traced) if v < 1.0), None)

    # directional parameter region: where does the crossover survive a
    # slower test turnaround and partial adoption?
    region = []
    for delay in (0.0, 1.0, 2.0):
        for p in (0.6, 1.0):
            cfg = replace(
                EPI_BASE,
                n_agents=250,
                adoption=p,
                test_delay_days=delay,
                intervention=Intervention.CONTACT_TRACING,
                horizon_days=40,
            )
            series = _averaged_generation_series(cfg, range(3))
            gen = next((g for g, v in enumerate(series) if v < 1.0), None)
            region.append(f"delay={delay:.0f}d p={p}: crossover@gen{gen}")
    print("  parameter region: " + "; ".join(region))

    report(
        "criterion 7 (R_eff crossover)",
        calibrated and crossover_gen is not None and crossover_gen <= 3,
        f"baseline gen-0 R_eff={baseline[0]:.2f} in [1.5, 2.0]; traced series "
        f"{[round(v, 2) for v in traced]} crosses below 1.0 at generation {crossover_gen} <= 3 "
        f"(averaged over {N_SEEDS} seeds)",
    )


# -- criterion 8: modality A/B equivalence ----------------------------------------


def test_criterion_8_modality_equivalence(tmp_path):
    rng = random.Random(5)
    cells = tuple((x, y) for x in range(3) for y in range(2))
    space = CellIndexSpace(cells, (0, 3600, 7200, 10800), bin_seconds=3600)
    n = 7
    per_user = [
        [CoarsenedVisit(cells[rng.randrange(len(cells))], 3600 * rng.randrange(4), 1) for _ in range(rng.randrange(3, 12))]
        for _ in range(n)
    ]

    store_a = LocationStore()
    for uid, visits in enumerate(per_user):
        store_a.ingest_location_payload(SharePayload(Purpose.LOCATION_UPLOAD, bytes([uid]) * 16, tuple(visits)))
    map_a = store_a.build_density_map(space)

    vectors = [
        ContributionVector.from_visits(space, [(v.cell, v.bin_start) for v in visits]) for visits in per_user
    ]
    seeds = make_pairwise_seeds(n, rng)
    shares = [mask_contribution(vectors[i], i, seeds_for(i, seeds), n) for i in range(n)]
    store_b = LocationStore()
    store_b.ingest_aggregate(space, aggregate(shares, n, space.dimension))
    map_b = store_b.build_density_map(space)

    export_density_csv(map_a, tmp_path / "a.csv")
    export_density_csv(map_b, tmp_path / "b.csv")
    bytes_a = (tmp_path / "a.csv").read_bytes()
    bytes_b = (tmp_path / "b.csv").read_bytes()
    same_hotspots = hotspots_to_json(detect_hotspots(map_a)) == hotspots_to_json(detect_hotspots(map_b))
    report(
        "criterion 8 (modality equivalence)",
        map_a.infected_counts == map_b.infected_counts and bytes_a == bytes_b and same_hotspots,
        f"plaintext vs masked-aggregate maps identical for {n} uploaders over D={space.dimension}; "
        f"exports byte-identical ({len(bytes_a)} bytes)",
    )


# -- criterion 9: suppression soundness --------------------------------------------


def test_criterion_9_suppression_soundness(tmp_path):
    rng = random.Random(11)
    scanned = 0
    for case in range(100_000):
        n_cells = rng.randrange(1, 5)
        n_bins = rng.randrange(1, 4)
        space = CellIndexSpace(
            tuple((c, 0) for c in range(n_cells)),
            tuple(3600 * b for b in range(n_bins)),
            bin_seconds=3600,
        )
        counts = tuple(rng.randrange(0, 13) for _ in range(space.dimension))
        dmap = DensityMap(space, counts)
        for value in dmap.published_counts():
            assert not 0 < value < 5, f"published {value} from {counts}"
        if case % 100 == 0:
            hotspots = detect_hotspots(dmap)
            rmap = publish_risk_map(dmap, hotspots)
            assert rmap.levels == bytes(3 if c >= K_ANON else 0 for c in counts), f"levels from {counts}"
            for h in hotspots:
                assert h.infected_count >= 5
            export_density_csv(dmap, tmp_path / "fuzz.csv")
            for line in (tmp_path / "fuzz.csv").read_text().splitlines()[1:]:
                assert not 0 < int(line.rsplit(",", 1)[1]) < 5
            scanned += 1
    report(
        "criterion 9 (suppression soundness)",
        scanned == 1000,
        f"100000 fuzzed count maps: no published count in (0, 5); {scanned} full artifact scans, "
        "each risk map 3 exactly where the count reaches K_ANON",
    )


# -- criterion 10: route optimality --------------------------------------------------


def _enumerate_best(width, height, origin, dest, level_at):
    best = None

    def neighbors(cell):
        x, y = cell
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nx < width and 0 <= ny < height:
                yield (nx, ny)

    def walk(path, seen, cost):
        nonlocal best
        cur = path[-1]
        if cur == dest:
            key = (cost, len(path) - 1, tuple(path))
            if best is None or key < best:
                best = key
            return
        for n in neighbors(cur):
            if n in seen:
                continue
            step = 1 + 10 * level_at(n)
            if best is not None and cost + step > best[0]:
                continue
            seen.add(n)
            path.append(n)
            walk(path, seen, cost + step)
            path.pop()
            seen.remove(n)

    walk([origin], {origin}, 0.0)
    return list(best[2])


def _dijkstra_cost(width, height, origin, dest, level_at):
    dist = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == dest:
            return d
        if d > dist.get(cell, math.inf):
            continue
        x, y = cell
        for n in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if not (0 <= n[0] < width and 0 <= n[1] < height):
                continue
            nd = d + 1 + 10 * level_at(n)
            if nd < dist.get(n, math.inf):
                dist[n] = nd
                heapq.heappush(heap, (nd, n))
    return math.inf


def _risk_map_for(width, height, levels):
    from epitrace.authority import RiskMap

    cells = tuple((x, y) for x in range(width) for y in range(height))
    space = CellIndexSpace(cells, (0,), bin_seconds=3600)
    return RiskMap(space, tuple(levels[c] for c in cells))


def test_criterion_10_route_optimality():
    rng = random.Random(31)
    for _ in range(1000):
        levels = {(x, y): rng.choice((0, 3)) for x in range(4) for y in range(4)}
        risk = _risk_map_for(4, 4, levels)
        origin = (rng.randrange(4), rng.randrange(4))
        dest = (rng.randrange(4), rng.randrange(4))
        got = safer_route(4, 4, origin, dest, risk, 0)
        expected = _enumerate_best(4, 4, origin, dest, lambda c: levels[c])
        assert got == expected, f"4x4 mismatch {origin}->{dest}"
    for _ in range(1000):
        levels = {(x, y): rng.randrange(4) for x in range(8) for y in range(8)}
        risk = _risk_map_for(8, 8, levels)
        origin = (rng.randrange(8), rng.randrange(8))
        dest = (rng.randrange(8), rng.randrange(8))
        path = safer_route(8, 8, origin, dest, risk, 0)
        oracle = _dijkstra_cost(8, 8, origin, dest, lambda c: levels[c])
        assert route_cost(path, risk, 0) == pytest.approx(oracle), f"8x8 mismatch {origin}->{dest}"
    report(
        "criterion 10 (route optimality)",
        True,
        "1000 exhaustive 4x4 cases (exact path, ties included) + 1000 Dijkstra-checked 8x8 cases, zero mismatches",
    )


# -- criterion 11: end-to-end determinism ---------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {
        "n_agents": 80,
        "width": 10,
        "height": 10,
        "adoption": 0.8,
        "beta_contact": 0.03,
        "beta_fomite": 0.02,
        "deposit_rate": 1.0,
        "intervention": "contact+location",
        "shared_space_cells": [[3, 3], [7, 6]],
        "seed": 17,
        "horizon_days": 10,
        "n_index_cases": 3,
        "n_workplaces": 25,
    }
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
    names = ("metrics.csv", "hotspots.json", "events.log", "summary.json")
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    sizes = ", ".join(f"{n}={len((out1 / n).read_bytes())}B" for n in names)
    report(
        "criterion 11 (determinism)",
        identical,
        f"two simulate runs byte-identical across {len(names)} artifacts ({sizes})",
    )
