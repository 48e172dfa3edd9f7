"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public entry points of each layer (listed in
``SPANS`` and ``LEAVES``) and ``uninstall`` puts the originals back.  A
module-level function is replaced in every ``epitrace`` module that binds
it, because callers look names up in their own namespace: ``sim`` imports
``derive_epoch_id`` and ``report_id_set`` directly, so patching
``epitrace.crypto_ids`` alone would record nothing of the simulator's
calls.  Methods are replaced on their class.

Spans record (name, start, end, parent) and stay in memory until the run
writes them out.  Leaf calls made millions of times are not spans: each
keeps a count and summed time under its enclosing span.  Held-state
counts (records in contact stores, points in personal data stores) come
from ``len()`` on the stores at day boundaries, so a later change that
writes around a wrapped method cannot zero them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from epitrace import authority, contact_store, crypto_ids, pds, secure_agg, self_awareness, sim

perf = time.perf_counter

# (span name, layer, owner, attribute); an owner that is a class is patched
# in place, a module's function is patched wherever it is bound.
SPANS = [
    ("sim.step", "sim", sim.Simulation, "step_epoch"),
    ("sim.positive_test", "sim", sim.Simulation, "on_positive_test"),
    ("sim.metrics", "sim", sim.Simulation, "metrics"),
    ("sim.write_outputs", "sim", sim.Simulation, "write_outputs"),
    ("crypto_ids.report_expand", "crypto_ids", crypto_ids, "report_id_set"),
    ("contact_store.check", "contact_store", contact_store.ContactStore, "check_exposure"),
    ("contact_store.check", "contact_store", contact_store.ContactStore, "check_exposure_ids"),
    ("contact_store.prune", "contact_store", contact_store.ContactStore, "prune"),
    ("pds.share", "pds", pds.PersonalDataStore, "build_share_payload"),
    ("authority.publish", "authority", authority.PublicBoard, "publish_report"),
    ("authority.ingest", "authority", authority.LocationStore, "ingest_location_payload"),
    ("authority.density", "authority", authority.LocationStore, "build_density_map"),
    ("authority.hotspots", "authority", authority, "detect_hotspots"),
    ("authority.risk_map", "authority", authority, "publish_risk_map"),
    ("secure_agg.mask", "secure_agg", secure_agg, "mask_contribution"),
    ("secure_agg.aggregate", "secure_agg", secure_agg, "aggregate"),
    ("self_awareness.route", "self_awareness", self_awareness, "safer_route"),
    ("self_awareness.score", "self_awareness", self_awareness, "exposure_score"),
]

LEAVES = [
    ("crypto_ids.derive", "crypto_ids", crypto_ids, "derive_epoch_id"),
    ("crypto_ids.advance", "crypto_ids", crypto_ids, "derive_next_seed"),
    ("contact_store.write", "contact_store", contact_store.ContactStore, "record_encounter"),
    ("pds.append", "pds", pds.PersonalDataStore, "append_location"),
    ("secure_agg.pairwise_mask", "secure_agg", secure_agg, "pairwise_mask"),
]

# Every per-layer metric with its unit, in report order.
PER_LAYER = [
    ("sim.step_s", "s"),
    ("sim.self_s", "s"),
    ("sim.positive_test_s", "s"),
    ("sim.metrics_s", "s"),
    ("sim.write_outputs_s", "s"),
    ("sim.agent_epochs", "count"),
    ("sim.infections", "count"),
    ("sim.notifications", "count"),
    ("crypto_ids.ids_derived", "count"),
    ("crypto_ids.distinct_ratio", "ratio"),
    ("crypto_ids.derive_s", "s"),
    ("crypto_ids.report_expand_s", "s"),
    ("crypto_ids.seeds_advanced", "count"),
    ("contact_store.records_written", "count"),
    ("contact_store.write_s", "s"),
    ("contact_store.records_held_peak", "count"),
    ("contact_store.prune_s", "s"),
    ("contact_store.checks", "count"),
    ("contact_store.check_s", "s"),
    ("contact_store.records_scanned", "count"),
    ("contact_store.match_ratio", "ratio"),
    ("pds.points_appended", "count"),
    ("pds.append_s", "s"),
    ("pds.points_held_peak", "count"),
    ("pds.payloads", "count"),
    ("pds.share_s", "s"),
    ("authority.reports_published", "count"),
    ("authority.payloads_ingested", "count"),
    ("authority.ingest_s", "s"),
    ("authority.density_builds", "count"),
    ("authority.density_entries", "count"),
    ("authority.density_s", "s"),
    ("authority.hotspot_s", "s"),
    ("authority.risk_map_s", "s"),
    ("secure_agg.mask_s", "s"),
    ("secure_agg.mask_words", "count"),
    ("secure_agg.aggregate_s", "s"),
    ("secure_agg.share_bytes", "count"),
    ("self_awareness.route_s", "s"),
    ("self_awareness.score_s", "s"),
    ("tracing_overhead_s", "s"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.count: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.leaf_totals: dict[tuple[int, str], list] = {}
        self.distinct_ids: set[int] = set()
        self.held_peak = {"contact_store": 0, "pds": 0}
        self.held_last_records = 0
        self.protocol_in_step = 0.0  # protocol-layer time inside sim.step spans
        self._stack: list[tuple[int, str, str]] = []  # open (span index, name, layer)
        self._step_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "sim.step": (self._count_agents, None),
            "contact_store.check": (self._count_scanned, self._count_match),
            "contact_store.prune": (self._held_records, self._count_pruned),
            "authority.density": (self._count_entries, None),
            "secure_agg.mask": (None, self._count_share_bytes),
            "crypto_ids.derive": (None, self._note_derivation),
            "secure_agg.pairwise_mask": (None, self._count_mask_words),
        }
        for name, layer, owner, attr in SPANS:
            before, after = hooks.get(name, (None, None))
            self._patch(owner, attr, lambda fn: self._span(name, layer, fn, before, after))
        for name, layer, owner, attr in LEAVES:
            _, after = hooks.get(name, (None, None))
            self._patch(owner, attr, lambda fn: self._leaf(name, layer, fn, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("epitrace"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapped)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, before, after):
        tracer = self
        is_step = name == "sim.step"

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:  # e.g. check_exposure -> check_exposure_ids
                return fn(*args, **kwargs)
            ctx = before(*args, **kwargs) if before else None
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append((index, name, layer))
            tracer._step_depth += is_step
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._step_depth -= is_step
                tracer.spans[index] = (name, start, end, parent)
                tracer._record(name, layer, end - start)
            if after:
                after(ctx, args, result)
            return result

        return wrapper

    def _leaf(self, name: str, layer: str, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            elapsed = perf() - start
            tracer._record(name, layer, elapsed)
            stack = tracer._stack
            key = (stack[-1][0] if stack else -1, name)
            totals = tracer.leaf_totals.get(key)
            if totals is None:
                tracer.leaf_totals[key] = [1, elapsed]
            else:
                totals[0] += 1
                totals[1] += elapsed
            if after:
                after(None, args, result)
            return result

        return wrapper

    def _record(self, name: str, layer: str, elapsed: float) -> None:
        self.count[name] += 1
        self.secs[name] += elapsed
        # a top-level protocol call inside a simulated epoch is not sim self time
        if layer != "sim" and self._step_depth and (not self._stack or self._stack[-1][2] == "sim"):
            self.protocol_in_step += elapsed

    # -- hooks -------------------------------------------------------------------

    def _count_agents(self, simulation, *args, **kwargs) -> None:
        self.count["sim.agent_epochs"] += len(simulation.agents)

    def _count_scanned(self, store, *args, **kwargs) -> None:
        self.count["contact_store.records_scanned"] += len(store)

    def _count_match(self, _ctx, _args, events) -> None:
        self.count["contact_store.matched_checks"] += bool(events)

    def _held_records(self, store, *args, **kwargs) -> int:
        return len(store)

    def _count_pruned(self, held_before, args, _result) -> None:
        self.count["contact_store.pruned"] += held_before - len(args[0])

    def _count_entries(self, _store, *args, **kwargs) -> None:
        space = kwargs["space"] if "space" in kwargs else args[0]
        self.count["authority.density_entries"] += space.dimension

    def _count_share_bytes(self, _ctx, _args, share) -> None:
        self.count["secure_agg.share_bytes"] += 8 + 4 * len(share.values)  # MaskedShare wire size

    def _note_derivation(self, _ctx, args, _result) -> None:
        self.distinct_ids.add(hash((args[0], args[1])))

    def _count_mask_words(self, _ctx, args, _result) -> None:
        self.count["secure_agg.mask_words"] += args[1]

    # -- held state and results -----------------------------------------------------

    def sample_held(self, records: int, points: int) -> None:
        """Record store sizes read through len() at a day boundary."""
        self.held_peak["contact_store"] = max(self.held_peak["contact_store"], records)
        self.held_peak["pds"] = max(self.held_peak["pds"], points)
        self.held_last_records = records

    def metrics(self, sim_counts: dict[str, int]) -> dict[str, float]:
        """Per-layer values of one traced repeat (without tracing_overhead_s)."""
        c, s = self.count, self.secs
        derived = c["crypto_ids.derive"]
        checks = c["contact_store.check"]
        return {
            "sim.step_s": s["sim.step"],
            "sim.self_s": s["sim.step"] - self.protocol_in_step,
            "sim.positive_test_s": s["sim.positive_test"],
            "sim.metrics_s": s["sim.metrics"],
            "sim.write_outputs_s": s["sim.write_outputs"],
            "sim.agent_epochs": c["sim.agent_epochs"],
            "sim.infections": sim_counts.get("sim.infections", 0),
            "sim.notifications": sim_counts.get("sim.notifications", 0),
            "crypto_ids.ids_derived": derived,
            "crypto_ids.distinct_ratio": len(self.distinct_ids) / derived if derived else 0.0,
            "crypto_ids.derive_s": s["crypto_ids.derive"],
            "crypto_ids.report_expand_s": s["crypto_ids.report_expand"],
            "crypto_ids.seeds_advanced": c["crypto_ids.advance"],
            "contact_store.records_written": self.held_last_records + c["contact_store.pruned"],
            "contact_store.write_s": s["contact_store.write"],
            "contact_store.records_held_peak": self.held_peak["contact_store"],
            "contact_store.prune_s": s["contact_store.prune"],
            "contact_store.checks": checks,
            "contact_store.check_s": s["contact_store.check"],
            "contact_store.records_scanned": c["contact_store.records_scanned"],
            "contact_store.match_ratio": c["contact_store.matched_checks"] / checks if checks else 0.0,
            "pds.points_appended": c["pds.append"],
            "pds.append_s": s["pds.append"],
            "pds.points_held_peak": self.held_peak["pds"],
            "pds.payloads": c["pds.share"],
            "pds.share_s": s["pds.share"],
            "authority.reports_published": c["authority.publish"],
            "authority.payloads_ingested": c["authority.ingest"],
            "authority.ingest_s": s["authority.ingest"],
            "authority.density_builds": c["authority.density"],
            "authority.density_entries": c["authority.density_entries"],
            "authority.density_s": s["authority.density"],
            "authority.hotspot_s": s["authority.hotspots"],
            "authority.risk_map_s": s["authority.risk_map"],
            "secure_agg.mask_s": s["secure_agg.mask"],
            "secure_agg.mask_words": c["secure_agg.mask_words"],
            "secure_agg.aggregate_s": s["secure_agg.aggregate"],
            "secure_agg.share_bytes": c["secure_agg.share_bytes"],
            "self_awareness.route_s": s["self_awareness.route"],
            "self_awareness.score_s": s["self_awareness.score"],
        }

    def dump(self) -> dict:
        """Spans and leaf totals in a JSON-ready form."""
        return {
            "spans": [list(span) for span in self.spans if span is not None],
            "leaf_totals": [[parent, name, n, secs] for (parent, name), (n, secs) in self.leaf_totals.items()],
        }
