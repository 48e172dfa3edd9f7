"""Timed protocol operations and the independent oracles that check them.

Every operation goes through the public API of one protocol module and is
looked up on that module at call time (``authority.detect_hotspots``, not a
name bound here), so the layer tracer can replace it.  An operation records
its start and end times under a kind name and returns nothing to verify
inline: its oracle is queued on the ``Recorder`` and run after the timed
region, so oracle work never counts towards an operation's or a day's
time.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from collections import defaultdict

from epitrace import authority, contact_store, secure_agg, self_awareness

EPOCHS_PER_DAY = 96
K_ANON = 5  # the published-count floor the authority promises
RISK_WEIGHT = 10  # route cost per risk level per step, as documented in self_awareness


class Recorder:
    """Per-kind operation timings plus attempted/failed operation counts.

    An operation is a list of (start, end) parts; ``mark`` runs between
    parts, and between batches of operations, to sample the machine's
    speed (see ``SpeedProbe`` in run.py) close to the work it scales.
    """

    def __init__(self, mark=lambda: None) -> None:
        self.ops: dict[str, list[list[tuple[float, float]]]] = defaultdict(list)
        self.mark = mark
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._pending: list[tuple[str, object]] = []

    def add(self, kind: str, started: float) -> None:
        self.ops[kind].append([(started, time.perf_counter())])

    def defer(self, what: str, oracle) -> None:
        """Queue a zero-argument check to run once the timed region ends."""
        self._pending.append((what, oracle))

    def verify_pending(self) -> None:
        pending, self._pending = self._pending, []
        for what, oracle in pending:
            self.check(bool(oracle()), what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# -- exposure matching -----------------------------------------------------------


def oracle_report_ids(report) -> frozenset[bytes]:
    """Every ID of a report, re-derived with plain SHA-256."""
    ids = set()
    for secret in report.seeds:
        for epoch in range(EPOCHS_PER_DAY):
            ids.add(hashlib.sha256(secret + b"EPHID" + epoch.to_bytes(4, "big")).digest()[:16])
    return frozenset(ids)


def oracle_events(store, ids: frozenset[bytes]) -> list[tuple]:
    per_day: dict[int, tuple[int, set[int]]] = {}
    for r in store.records():
        if r.attenuation <= contact_store.ATTENUATION_CUTOFF and r.observed in ids:
            minutes, epochs = per_day.get(r.day, (0, set()))
            per_day[r.day] = (minutes + r.duration_min, epochs | {r.epoch})
    return [
        (day, minutes, tuple(sorted(epochs)))
        for day, (minutes, epochs) in sorted(per_day.items())
        if minutes >= contact_store.EXPOSURE_MIN_MINUTES
    ]


def exposure_check(rec: Recorder, store, report, oracle_ids: dict) -> None:
    """One device matches one published report against its own log.

    ``oracle_ids`` caches each report's oracle re-derivation across checks.
    """
    started = time.perf_counter()
    events = store.check_exposure(report)
    rec.add("exposure_check", started)
    got = [(e.day, e.cumulative_min, e.matched_epochs) for e in events]

    def oracle() -> bool:
        ids = oracle_ids.get(report)
        if ids is None:
            ids = oracle_ids[report] = oracle_report_ids(report)
        return got == oracle_events(store, ids)

    rec.defer(f"check_exposure on {len(store)} records vs {len(report.seeds)}-day report", oracle)


# -- masked aggregation ----------------------------------------------------------


def agg_round(rec: Recorder, vectors, seeds) -> None:
    """Every participant masks its vector, then the aggregator sums; each
    participant's masking and the sum are the round's timed parts."""
    n, dim = len(vectors), vectors[0].space.dimension
    shares, parts = [], []
    for i, v in enumerate(vectors):
        rec.mark()
        started = time.perf_counter()
        shares.append(secure_agg.mask_contribution(v, i, secure_agg.seeds_for(i, seeds), n))
        parts.append((started, time.perf_counter()))
    rec.mark()
    started = time.perf_counter()
    totals = secure_agg.aggregate(shares, n, dim)
    parts.append((started, time.perf_counter()))
    rec.mark()
    rec.ops["agg_round"].append(parts)
    rec.defer(
        f"aggregate of {n} x {dim} vs plaintext sum",
        lambda: totals == [sum(col) for col in zip(*(v.counts for v in vectors))],
    )


# -- authority analytics ---------------------------------------------------------


def authority_pass(rec: Recorder, location_store, space):
    """Density map, hotspots and risk map: the authority's publication step."""
    started = time.perf_counter()
    dmap = location_store.build_density_map(space)
    hotspots = authority.detect_hotspots(dmap)
    risk = authority.publish_risk_map(dmap, hotspots)
    rec.add("density", started)
    rec.defer(
        f"no published density count in 1..{K_ANON - 1} over {space.dimension} entries",
        lambda: not any(0 < c < K_ANON for c in dmap.published_counts()),
    )
    return hotspots, risk


# -- citizen analytics -----------------------------------------------------------


def oracle_route_cost(width: int, height: int, origin, dest, level) -> float:
    """Plain Dijkstra over the 4-neighbour lattice; entering a cell costs
    1 + RISK_WEIGHT * its level."""
    best = {origin: 0.0}
    heap = [(0.0, origin)]
    while heap:
        cost, (x, y) = heapq.heappop(heap)
        if (x, y) == dest:
            return cost
        if cost > best[(x, y)]:
            continue
        for nxt in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nxt[0] < width and 0 <= nxt[1] < height:
                cand = cost + 1.0 + RISK_WEIGHT * level(nxt)
                if cand < best.get(nxt, float("inf")):
                    best[nxt] = cand
                    heapq.heappush(heap, (cand, nxt))
    return float("inf")


def route_and_score(rec: Recorder, width: int, height: int, origin, dest, risk, bin_start: int, visits) -> None:
    """A citizen plans a safer route and scores their own history."""
    started = time.perf_counter()
    path = self_awareness.safer_route(width, height, origin, dest, risk, bin_start)
    score = self_awareness.exposure_score(visits, risk)
    rec.add("route", started)

    def oracle() -> bool:
        def level(cell):
            return risk.level_at(cell, bin_start)

        steps_ok = all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(path, path[1:]))
        cost = sum(1.0 + RISK_WEIGHT * level(c) for c in path[1:])
        expected = oracle_route_cost(width, height, origin, dest, level)
        score_ok = score.total == sum(float(v.dwell_min * risk.level_at(v.cell, v.bin_start)) for v in visits)
        return path[0] == origin and path[-1] == dest and steps_ok and abs(cost - expected) < 1e-9 and score_ok

    rec.defer(f"safer_route {origin}->{dest} and exposure_score of {len(visits)} visits", oracle)
