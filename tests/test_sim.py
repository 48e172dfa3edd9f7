"""Simulator: determinism, degenerate dynamics, mode gating, audits."""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_golden import CONFIGS as GOLDEN_CONFIGS

from epitrace.crypto_ids import derive_epoch_id, epoch_ids
from epitrace.pds import LocationPoint
from epitrace.sim import (
    EPOCHS_PER_DAY,
    QUARANTINE_DAYS,
    WORK_END,
    WORK_START,
    ConfigError,
    Intervention,
    ScenarioConfig,
    Simulation,
    default_shared_cells,
    run_scenario,
    sweep,
)

BASE = ScenarioConfig(
    n_agents=120,
    width=12,
    height=12,
    adoption=0.7,
    beta_contact=0.02,
    beta_fomite=0.0,
    intervention=Intervention.NONE,
    shared_space_cells=default_shared_cells(12, 12, 3),
    seed=11,
    horizon_days=14,
    n_index_cases=3,
    n_workplaces=40,
)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# values near the valid ranges, so that some objects are valid configs
near_valid = (
    st.integers(-2, 30)
    | st.floats(-1.0, 40.0)
    | st.sampled_from(["none", "contact", "contact+location"])
    | st.lists(st.lists(st.integers(-1, 30), min_size=2, max_size=2), max_size=3)
)
config_objects = st.dictionaries(
    st.sampled_from(sorted(ScenarioConfig.__dataclass_fields__)) | st.text(max_size=8),
    near_valid | json_values,
    max_size=8,
)


WRONG_JSON_TYPES = [
    ("n_agents", "5"),
    ("horizon_days", 1.5),
    ("seed", True),
    ("adoption", None),
    ("beta_fomite", float("nan")),
    ("shared_space_cells", [[1, 2, 3]]),
    ("shared_space_cells", [[1, "2"]]),
    ("shared_space_cells", "2,2"),
]


def run_record(sim):
    """What a run recorded: each day's closing S/E/I/R/Q counts and its event stream."""
    return sim.day_counts, sim.events


class TestConfigValidation:
    def test_field_named_in_error(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_json({"adoption": 1.5})
        assert err.value.field == "adoption"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_json({"nonsense": 1})
        assert err.value.field == "nonsense"

    def test_bad_intervention_name(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_json({"intervention": "teleport"})
        assert err.value.field == "intervention"

    def test_shared_cell_bounds(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_json(
                {"width": 4, "height": 4, "n_workplaces": 4, "shared_space_cells": [[4, 0]]}
            )
        assert err.value.field == "shared_space_cells"

    def test_shared_cell_listed_twice(self):
        with pytest.raises(ConfigError, match=r"\(2, 2\) listed twice") as err:
            ScenarioConfig.from_json({"shared_space_cells": [[2, 2], [4, 4], [2, 2]]})
        assert err.value.field == "shared_space_cells"

    @pytest.mark.parametrize("field,value", WRONG_JSON_TYPES)
    def test_wrong_json_type_names_field(self, field, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_json({field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("build", [ScenarioConfig, partial(replace, BASE)], ids=["constructor", "replace"])
    @pytest.mark.parametrize(
        "field,value",
        WRONG_JSON_TYPES
        + [
            ("seed", 1.5),
            ("n_workplaces", True),
            ("adoption", True),
            ("horizon_days", 2.5),
            ("n_agents", 5.5),
            ("n_index_cases", 1.0),
            ("deposit_rate", 10**400),
            ("intervention", "contact"),
            ("shared_space_cells", ((1.5, 2),)),
            ("shared_space_cells", [(2, 2)]),  # a list would make the frozen config unhashable
        ],
    )
    def test_wrong_type_in_code_built_config_names_field(self, build, field, value):
        with pytest.raises(ConfigError) as err:
            build(**{field: value})
        assert err.value.field == field

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json([["n_agents", 5]])

    def test_int_accepted_for_float_field(self):
        assert ScenarioConfig.from_json({"adoption": 1}).adoption == 1

    def test_round_trip(self):
        cfg = ScenarioConfig.from_json(BASE.to_json())
        assert cfg == BASE

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "adoption",
            "beta_contact",
            "beta_fomite",
            "deposit_rate",
            "decay_half_life_days",
            "e_mean_days",
            "i_mean_days",
            "test_delay_days",
        ],
    )
    def test_non_finite_float_rejected_in_code_built_config(self, field, value):
        with pytest.raises(ConfigError) as err:
            replace(BASE, **{field: value}).validate()
        assert err.value.field == field

    def test_int_too_large_for_a_float_rejected(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_json({"deposit_rate": 10**400})
        assert err.value.field == "deposit_rate"

    @given(config_objects)
    def test_from_json_accepts_a_valid_config_or_raises_config_error(self, obj):
        try:
            cfg = ScenarioConfig.from_json(obj)
        except ConfigError:
            return
        cfg.validate()
        assert ScenarioConfig.from_json(cfg.to_json()) == cfg

    def test_field_type_comes_from_annotation_not_default(self):
        @dataclass(frozen=True)
        class Wider(ScenarioConfig):
            scale: float = 1

        assert Wider.from_json({"scale": 0.5}).scale == 0.5
        with pytest.raises(ConfigError) as err:
            Wider.from_json({"scale": "0.5"})
        assert err.value.field == "scale"


class TestDeterminism:
    def test_identical_runs(self):
        sim1 = Simulation(BASE)
        m1 = sim1.run()
        sim2 = Simulation(BASE)
        m2 = sim2.run()
        assert m1 == m2
        assert run_record(sim1) == run_record(sim2)
        assert sim1.infections == sim2.infections

    def test_seed_changes_trajectory(self):
        from dataclasses import replace

        m1 = run_scenario(BASE)
        m2 = run_scenario(replace(BASE, seed=12))
        assert m1 != m2


class TestDegenerateDynamics:
    def test_no_transmission_channels_no_spread(self):
        from dataclasses import replace

        cfg = replace(BASE, beta_contact=0.0, beta_fomite=0.0)
        sim = Simulation(cfg)
        sim.run()
        assert all(e.channel == "seed" for e in sim.infections)
        assert len(sim.infections) == cfg.n_index_cases

    def test_lone_index_case_infects_nobody_without_contact(self):
        cfg = ScenarioConfig(
            n_agents=1,
            width=4,
            height=4,
            adoption=1.0,
            beta_contact=0.9,
            n_index_cases=1,
            n_workplaces=0,
            horizon_days=5,
            seed=1,
        )
        sim = Simulation(cfg)
        sim.run()
        assert len(sim.infections) == 1  # only the seeded case

    def test_conservation_holds_every_day(self):
        sim = Simulation(BASE)
        sim.run()  # _close_day asserts S+E+I+R+Q == N
        assert len(sim.day_counts) == BASE.horizon_days
        assert all(sum(seirq) == BASE.n_agents for seirq in sim.day_counts)


class TestFomiteMechanics:
    def test_decay_halves_after_one_half_life(self):
        from dataclasses import replace

        cfg = replace(
            BASE,
            n_agents=1,
            n_index_cases=0,
            beta_fomite=0.0,
            decay_half_life_days=0.25,  # 24 epochs
            horizon_days=1,
            shared_space_cells=((0, 0),),
            n_workplaces=0,
        )
        sim = Simulation(cfg)
        cell = sim._shared[0]
        sim.contamination[cell] = 1.0
        for _ in range(24):
            sim.step_epoch()
        assert sim.contamination[cell] == pytest.approx(0.5, rel=1e-9)

    def test_fomite_infections_need_contamination(self):
        from dataclasses import replace

        cfg = replace(BASE, beta_contact=0.0, beta_fomite=0.08, deposit_rate=1.0, horizon_days=20)
        sim = Simulation(cfg)
        sim.run()
        fomite = [e for e in sim.infections if e.channel == "fomite"]
        shared = set(cfg.shared_space_cells)
        assert all(e.cell in shared for e in fomite)
        assert all(e.infector is None and e.generation == 0 for e in fomite)


class TestInterventionGating:
    def test_zero_adoption_contact_tracing_is_inert(self):
        from dataclasses import replace

        none_sim = Simulation(replace(BASE, adoption=0.0, intervention=Intervention.NONE))
        none_sim.run()
        ct_sim = Simulation(replace(BASE, adoption=0.0, intervention=Intervention.CONTACT_TRACING))
        ct_sim.run()
        assert run_record(none_sim) == run_record(ct_sim)
        assert none_sim.infections == ct_sim.infections
        assert len(ct_sim.board.reports()) == 0

    def test_contact_mode_publishes_reports_but_no_payloads(self):
        from dataclasses import replace

        sim = Simulation(replace(BASE, intervention=Intervention.CONTACT_TRACING))
        sim.run()
        assert len(sim.board.reports()) > 0
        assert len(sim.location_channel_identifiers()) == 0

    def test_location_mode_fires_both_channels_disjointly(self):
        from dataclasses import replace

        sim = Simulation(replace(BASE, intervention=Intervention.CONTACT_AND_LOCATION))
        sim.run()
        contact_ids = sim.contact_channel_identifiers()
        location_ids = sim.location_channel_identifiers()
        assert contact_ids and location_ids
        assert contact_ids.isdisjoint(location_ids)

    def test_agents_without_app_only_quarantine(self):
        from dataclasses import replace

        sim = Simulation(replace(BASE, adoption=0.0, intervention=Intervention.CONTACT_AND_LOCATION))
        sim.run()
        assert sim.tests  # positives were found and isolated
        assert not sim.board.reports()
        assert not sim.location_channel_identifiers()
        assert not sim.notifications


class TestTracingCausality:
    def test_every_notification_is_derivable_from_the_board(self):
        """Brute-force audit: each notified agent must hold records that
        re-derive from the notifier's published seeds and cross the
        exposure threshold (horizon kept inside the retention window so
        nothing was pruned before we look)."""
        from dataclasses import replace

        cfg = replace(BASE, intervention=Intervention.CONTACT_TRACING, horizon_days=13, beta_contact=0.03)
        sim = Simulation(cfg)
        sim.run()
        assert sim.notifications, "scenario produced no notifications to audit"
        reports_by_source = {}
        for report, test_event in zip(sim.board.reports(), [t for t in sim.tests if sim.agents[t.agent].has_app]):
            reports_by_source.setdefault(test_event.agent, []).append(report)
        for note in sim.notifications:
            candidates = reports_by_source.get(note.source, [])
            assert candidates, f"notification from {note.source} has no published report"
            ids = set()
            for report in candidates:
                for secret in report.seeds:
                    for j in range(96):
                        digest = hashlib.sha256(secret + b"EPHID" + j.to_bytes(4, "big")).digest()
                        ids.add(digest[:16])
            per_day = {}
            for r in sim.agents[note.target].store.records():
                if r.attenuation <= 60 and r.observed in ids:
                    per_day[r.day] = per_day.get(r.day, 0) + r.duration_min
            assert any(v >= 15 for v in per_day.values()), (
                f"agent {note.target} notified without a derivable exposure"
            )

    def test_notified_exposed_agents_counted_as_traced(self):
        from dataclasses import replace

        cfg = replace(BASE, intervention=Intervention.CONTACT_TRACING, adoption=1.0, beta_contact=0.03)
        sim = Simulation(cfg)
        m = sim.run()
        if any(n.disease_at == "E" for n in sim.notifications):
            assert m.traced_fraction > 0


class PerEpochLogging(Simulation):
    """The simulator with per-epoch encounter logging, as it was before
    runs were deferred: every carrier writes each epoch as it happens."""

    def __init__(self, cfg):
        self._last_groups = {}  # cell -> (members, carriers)
        super().__init__(cfg)

    def _log_encounters(self, occupancy, day, eod):
        partners = self._partners
        last_groups = self._last_groups
        for cell, members in occupancy.items():
            if len(members) < 2:
                continue
            last = last_groups.get(cell)
            if last is not None and last[0] == members:
                carriers = last[1]
            else:
                carriers = [a for a in members if a.has_app]
                last_groups[cell] = (members, carriers)
                member_ids = [a.id for a in members]
                for aid in member_ids:
                    peers = partners[aid]
                    peers.update(member_ids)
                    peers.discard(aid)
            if len(carriers) < 2:
                continue
            ids = [derive_epoch_id(a.seed_chain[-1].secret, eod) for a in carriers]
            for i, a in enumerate(carriers):
                others = ids[:i] + ids[i + 1 :]
                a.store.record_observations(others, day, [eod] * len(others), 15, 30)


# positives are tested 1.3 days after turning infectious, so at all times
# of day; the location world's errands leave cells without a group; the
# 18-day world runs past QUARANTINE_DAYS, so agents also leave Q; the
# delay0 world tests each positive in the epoch it turns infectious
DEFERRED_WORLDS = {
    "contact": replace(BASE, intervention=Intervention.CONTACT_TRACING, test_delay_days=1.3, horizon_days=9),
    "delay0": replace(
        BASE,
        intervention=Intervention.CONTACT_TRACING,
        beta_contact=0.3,
        n_index_cases=12,
        test_delay_days=0.0,
        horizon_days=9,
    ),
    "18-day": replace(
        BASE,
        intervention=Intervention.CONTACT_TRACING,
        beta_contact=0.03,
        test_delay_days=1.3,
        horizon_days=18,
    ),
    "contact+location": replace(
        BASE,
        intervention=Intervention.CONTACT_AND_LOCATION,
        beta_contact=0.01,
        beta_fomite=0.05,
        n_workplaces=0,
        test_delay_days=1.3,
        horizon_days=9,
    ),
}


def carriers_of(sim):
    return [a for a in sim.agents if a.has_app]


def open_run_lag(sim, agent):
    """Records an agent's store still owes for the open run it is in."""
    start = sim._runs.get(agent.cell)
    carriers = sim._groups[agent.cell][1] if start is not None else ()
    if agent not in carriers:
        return 0
    last = (sim.epoch - 1) % EPOCHS_PER_DAY  # an open run lasts to the last epoch stepped
    return (last - start + 1) * (len(carriers) - 1)


class TestDeferredEncounterLog:
    @pytest.mark.parametrize("world", sorted(DEFERRED_WORLDS))
    def test_stores_and_notifications_match_per_epoch_logging(self, world):
        cfg = DEFERRED_WORLDS[world]
        sim, ref = Simulation(cfg), PerEpochLogging(cfg)
        mid_day_tests = 0
        for epoch in range(cfg.horizon_days * EPOCHS_PER_DAY):
            sim.step_epoch()
            ref.step_epoch()
            assert sim.notifications == ref.notifications
            mid_day_tests += sum(
                t.epoch == epoch and epoch % EPOCHS_PER_DAY not in (0, EPOCHS_PER_DAY - 1) for t in sim.tests
            )
            # within a day a store lags by exactly its open run
            for a, b in zip(carriers_of(sim), carriers_of(ref)):
                assert len(b.store) - len(a.store) == open_run_lag(sim, a)
            if epoch % EPOCHS_PER_DAY == EPOCHS_PER_DAY - 1:
                assert not sim._runs
                for a, b in zip(carriers_of(sim), carriers_of(ref)):
                    assert a.store.export_lines() == b.store.export_lines()
        assert mid_day_tests and sim.notifications, "no positive was checked mid-run"
        assert sim.tests == ref.tests and sim.infections == ref.infections
        assert sim.metrics() == ref.metrics()

    def test_positive_checked_mid_run_reaches_a_contact_made_today(self):
        # two carriers from different homes first meet at work on day 0;
        # one tests positive while their run there is still open
        cfg = ScenarioConfig(
            n_agents=2,
            width=4,
            height=4,
            adoption=1.0,
            beta_contact=0.0,
            intervention=Intervention.CONTACT_TRACING,
            n_index_cases=0,
            n_workplaces=1,
            horizon_days=1,
            seed=0,
        )
        for sim in (Simulation(cfg), PerEpochLogging(cfg)):
            positive, contact = sim.agents
            assert positive.home != contact.home
            while sim.epoch < WORK_START + 4:
                sim.step_epoch()
            sim.on_positive_test(positive, 0)
            assert [(n.source, n.target) for n in sim.notifications] == [(0, 1)]
            assert len(contact.store) == 4

    @pytest.mark.parametrize("world", sorted(DEFERRED_WORLDS))
    def test_each_id_heard_is_derived_once(self, world, monkeypatch):
        derived = []

        def counting_epoch_ids(secret, start=0, stop=EPOCHS_PER_DAY):
            ids = epoch_ids(secret, start, stop)
            derived.append(len(ids))
            return ids

        monkeypatch.setattr("epitrace.sim.epoch_ids", counting_epoch_ids)
        cfg = DEFERRED_WORLDS[world]
        sim = Simulation(cfg)
        carriers = carriers_of(sim)
        accompanied = 0  # carrier-epochs spent with at least one other carrier
        for epoch in range(cfg.horizon_days * EPOCHS_PER_DAY):
            sim.step_epoch()
            per_cell = Counter(a.cell for a in carriers)
            accompanied += sum(n for n in per_cell.values() if n > 1)
            if epoch % EPOCHS_PER_DAY == EPOCHS_PER_DAY - 1:
                assert sum(derived) == accompanied
        assert 0 < accompanied < len(carriers) * cfg.horizon_days * EPOCHS_PER_DAY


class PerFixWriting(Simulation):
    """The simulator writing each location fix to its carrier's PDS the
    moment it is taken, one ``append_location`` call per fix, as it did
    before fixes were buffered."""

    def _place(self, agent, eod):
        cell = super()._place(agent, eod)
        self._write_singly(agent)
        return cell

    def _sample_locations(self):
        super()._sample_locations()
        for agent in self._trackers:
            self._write_singly(agent)

    def _write_singly(self, agent):
        if agent.fixes:
            for t, cell in agent.fixes:
                lat, lon = self._centres[cell]
                agent.pds.append_location(LocationPoint(lat, lon, t))
            agent.fixes.clear()


def record_uploads(sim):
    """Every location payload body ``sim`` ingests, with its epoch, in order."""
    uploads = []
    ingest = sim.location_store.ingest_location_payload

    def recording(payload):
        uploads.append((sim.epoch, payload.body))
        ingest(payload)

    sim.location_store.ingest_location_payload = recording
    return uploads


class TestLocationFixBuffer:
    def test_pds_complete_at_day_end_and_before_each_upload(self):
        cfg = DEFERRED_WORLDS["contact+location"]
        sim, ref = Simulation(cfg), PerFixWriting(cfg)
        uploads, ref_uploads = record_uploads(sim), record_uploads(ref)
        trackers = carriers_of(sim)
        assert sim._trackers == trackers and all(a.fixes is None for a in sim.agents if not a.has_app)
        for epoch in range(cfg.horizon_days * EPOCHS_PER_DAY):
            sim.step_epoch()
            ref.step_epoch()
            assert uploads == ref_uploads
            if epoch % EPOCHS_PER_DAY == EPOCHS_PER_DAY - 1:
                for a, b in zip(trackers, carriers_of(ref)):
                    assert a.fixes == []
                    assert a.pds._points == b.pds._points
        # a positive tested mid-day uploads that day's fixes too
        same_day = [
            epoch
            for epoch, body in uploads
            if epoch % EPOCHS_PER_DAY and any(v.bin_start >= epoch // EPOCHS_PER_DAY * 86400 for v in body)
        ]
        assert same_day, "no upload carried a fix from its own day"

    def test_no_buffer_without_location_mode(self):
        sim = Simulation(replace(BASE, intervention=Intervention.CONTACT_TRACING))
        assert sim._trackers == [] and all(a.fixes is None for a in sim.agents)


def routine_cell(agent, eod, in_q):
    """Where the daily routine puts an agent at ``eod``."""
    if in_q:
        return agent.home
    if eod == agent.errand_epoch:
        return agent.errand_cell
    return agent.work if WORK_START <= eod < WORK_END else agent.home


def releasable(agent, now):
    """The release rule: Q ends at ``q_until``, for a positive once recovered."""
    return now >= agent.q_until and (not agent.tested or agent.disease == "R")


class TestChangeDrivenPlacement:
    @pytest.mark.parametrize("world", sorted(DEFERRED_WORLDS))
    def test_every_agent_sits_where_the_routine_puts_it(self, world):
        cfg = DEFERRED_WORLDS[world]
        sim = Simulation(cfg)
        entered = left = 0  # Q changes placed outside the three full placements
        held = extended = 0  # Q epochs past q_until; q_until moved while in Q
        while sim.epoch < cfg.horizon_days * EPOCHS_PER_DAY:
            now, eod = sim.epoch, sim.epoch % EPOCHS_PER_DAY
            in_q = [a.state == "Q" for a in sim.agents]
            q_until = [a.q_until for a in sim.agents]
            sim.step_epoch()
            # a booking filed for an epoch already stepped would never fire
            assert min(sim._due, default=sim.epoch) >= sim.epoch
            for a, q, until in zip(sim.agents, in_q, q_until):
                assert a.cell == routine_cell(a, eod, q), (world, now, a.id)
                # Q ends in the first epoch the release rule allows it
                if a.state == "Q":
                    assert not releasable(a, now), (world, now, a.id)
                    held += now >= a.q_until
                    extended += q and a.q_until > until
                elif q:
                    assert releasable(a, now), (world, now, a.id)
            grouped = {}
            for a in sim.agents:
                grouped.setdefault(a.cell, []).append(a)
            assert sim._occupancy == grouped
            if eod not in (0, WORK_START, WORK_END):
                now_q = [a.state == "Q" for a in sim.agents]
                entered += sum(q < now for q, now in zip(in_q, now_q))
                left += sum(q > now for q, now in zip(in_q, now_q))
        assert entered and extended
        if cfg.horizon_days > QUARANTINE_DAYS:  # the 18-day world: agents also leave Q
            assert left and held


class TestTimers:
    def test_direct_test_cancels_the_pending_one(self):
        cfg = ScenarioConfig(
            n_agents=3,
            width=4,
            height=4,
            beta_contact=0.0,
            i_mean_days=50.0,
            n_index_cases=1,
            n_workplaces=0,
            horizon_days=3,
            seed=0,
        )
        sim = Simulation(cfg)
        (index,) = [a for a in sim.agents if a.disease == "I"]
        sim.on_positive_test(index, 0)
        sim.run()  # past the 2-day delay of the test booked at seeding
        assert index.disease == "I"
        assert [(t.epoch, t.agent) for t in sim.tests] == [(0, index.id)]

    def test_recovery_comes_no_earlier_than_the_epoch_after_onset(self):
        sim = Simulation(ScenarioConfig(n_agents=1, width=2, height=2, n_index_cases=0, n_workplaces=0, seed=0))
        sim.rng.expovariate = lambda rate: 0.0  # every E and I period lasts no time
        (agent,) = sim.agents
        sim._infect(agent, None, "fomite", agent.cell)
        sim.step_epoch()
        assert agent.disease == "I"
        sim.step_epoch()
        assert agent.disease == "R"


class TestMovementModel:
    def test_seed_chains_stay_contiguous_and_bounded(self):
        sim = Simulation(BASE)
        sim.run()
        for agent in sim.agents:
            if not agent.has_app:
                continue
            days = [s.day for s in agent.seed_chain]
            assert days == list(range(days[0], days[0] + len(days)))
            assert len(days) <= 14

    def test_quarantined_agents_stay_home(self):
        from dataclasses import replace

        cfg = replace(BASE, intervention=Intervention.CONTACT_TRACING, beta_contact=0.04)
        sim = Simulation(cfg)
        total = cfg.horizon_days * EPOCHS_PER_DAY
        violations = 0
        quarantined_epochs = 0
        while sim.epoch < total:
            # quarantine takes effect from the next movement step; audit
            # agents that entered the epoch already quarantined
            q_before = [a for a in sim.agents if a.state == "Q"]
            sim.step_epoch()
            quarantined_epochs += len(q_before)
            violations += sum(1 for a in q_before if a.state == "Q" and a.cell != a.home)
        assert violations == 0
        assert quarantined_epochs > 0
        # the kernel keeps a running count of Q agents rather than scanning
        assert sim.metrics().quarantine_person_days == quarantined_epochs / EPOCHS_PER_DAY


class TestArtifacts:
    def test_output_files(self, tmp_path):
        from dataclasses import replace

        cfg = replace(BASE, intervention=Intervention.CONTACT_AND_LOCATION)
        run_scenario(cfg, outdir=tmp_path)
        for name in ("metrics.csv", "hotspots.json", "events.log", "summary.json"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "day,s,e,i,r,q,new_infections"

    def test_events_log_is_auditable(self, tmp_path):
        sim = Simulation(BASE)
        sim.run()
        sim.write_outputs(tmp_path)
        lines = (tmp_path / "events.log").read_text().splitlines()
        kinds = {line.split()[0] for line in lines}
        assert "INFECT" in kinds
        seeds = [line for line in lines if "channel=seed" in line]
        assert len(seeds) == BASE.n_index_cases

    def test_write_outputs_builds_density_map_once(self, tmp_path, density_builds):
        sim = Simulation(replace(BASE, intervention=Intervention.CONTACT_AND_LOCATION))
        sim.run()
        density_builds.clear()
        sim.write_outputs(tmp_path)
        assert len(density_builds) == 1

    def test_run_scenario_with_outputs_builds_density_map_once(self, tmp_path, density_builds):
        cfg = replace(BASE, intervention=Intervention.CONTACT_AND_LOCATION)
        metrics = run_scenario(cfg, tmp_path)
        assert len(density_builds) == 1
        assert metrics == run_scenario(cfg)
        assert json.loads((tmp_path / "summary.json").read_text()) == metrics.to_json()


def kind_by_kind_log(sim):
    """events.log as the writer before the event stream printed it, from the
    views: every INFECT line, then every TEST line, then every NOTIFY line."""
    lines = []
    for e in sim.infections:
        infector = e.infector if e.infector is not None else "-"
        lines.append(
            f"INFECT epoch={e.epoch} channel={e.channel} infectee={e.infectee} "
            f"infector={infector} cell={e.cell[0]},{e.cell[1]} generation={e.generation}"
        )
    for t in sim.tests:
        lines.append(f"TEST epoch={t.epoch} agent={t.agent}")
    for n in sim.notifications:
        lines.append(f"NOTIFY epoch={n.epoch} source={n.source} target={n.target} disease={n.disease_at}")
    return "\n".join(lines) + ("\n" if lines else "")


STREAM_WORLDS = {
    **{f"golden-{name}": cfg for name, cfg in GOLDEN_CONFIGS.items()},
    **{f"deferred-{name}": cfg for name, cfg in DEFERRED_WORLDS.items()},
}


class TestEventStream:
    @pytest.mark.parametrize("world", sorted(STREAM_WORLDS))
    def test_events_log_is_the_kind_by_kind_log_in_time_order(self, world, tmp_path):
        sim = Simulation(STREAM_WORLDS[world])
        sim.run()
        sim.write_outputs(tmp_path)
        lines = (tmp_path / "events.log").read_text().splitlines()
        assert Counter(lines) == Counter(kind_by_kind_log(sim).splitlines())
        events = [(line.split()[0], dict(f.split("=") for f in line.split()[1:])) for line in lines]
        epochs = [int(fields["epoch"]) for _kind, fields in events]
        assert epochs == sorted(epochs)
        tested = set()
        for kind, fields in events:
            if kind == "TEST":
                tested.add(fields["agent"])
            elif kind == "NOTIFY":
                assert fields["source"] in tested, fields


class TestSweep:
    def test_grid_cardinality_and_determinism(self, tmp_path):
        axes = {"adoption": [0.0, 0.5, 1.0], "seed": [1, 2]}
        small = ScenarioConfig(
            n_agents=40,
            width=8,
            height=8,
            beta_contact=0.02,
            horizon_days=5,
            n_index_cases=2,
            n_workplaces=12,
            shared_space_cells=default_shared_cells(8, 8, 2),
        )
        rows1 = sweep(small, axes, out_csv=tmp_path / "sweep1.csv")
        rows2 = sweep(small, axes, out_csv=tmp_path / "sweep2.csv")
        assert len(rows1) == 6
        assert rows1 == rows2
        assert (tmp_path / "sweep1.csv").read_bytes() == (tmp_path / "sweep2.csv").read_bytes()

    @pytest.mark.parametrize(
        "field,values",
        [
            ("adoption", [0.5, None]),
            ("horizon_days", [2, 1.5]),
            ("seed", ["1"]),
            # world-shape checks: BASE leaves 141 of its 144 cells non-shared
            ("n_workplaces", [40, 143]),
            ("shared_space_cells", [[], [[x, y] for x in range(12) for y in range(12)]]),
        ],
    )
    def test_axis_value_checked_like_config_field_before_any_run(self, monkeypatch, field, values):
        runs = []
        monkeypatch.setattr("epitrace.sim.run_scenario", lambda cfg: runs.append(cfg))
        with pytest.raises(ConfigError) as err:
            sweep(BASE, {field: values})
        assert err.value.field == field
        assert runs == []

    def test_intervention_axis_takes_names_and_members(self):
        small = replace(BASE, n_agents=30, horizon_days=2, n_workplaces=10)
        rows = sweep(small, {"intervention": ["contact", Intervention.NONE]})
        assert [r["intervention"] for r in rows] == [Intervention.CONTACT_TRACING, Intervention.NONE]
