"""Deterministic agent-based epidemic simulator on a grid world.

Agents follow a home→work→home routine with one shared-space errand per
day.  Infection spreads through two channels: direct co-location contact
and surface contamination deposited in shared spaces.  The tracing
machinery under test runs inside the loop: app carriers broadcast rotating
ephemeral IDs, log encounters, and on a positive test publish an exposure
report (and, in location mode, upload a coarsened visit history), after
which matching contacts quarantine.  A location-mode carrier's fixes are
buffered and written to its PDS in one batch at day end, and before its
upload if it tests positive, so the upload covers its own day.

Everything random flows from one seeded generator in a fixed iteration
order (agents by ascending id, cells row-major, shared cells in config
order), so a (config, seed) pair reproduces bit-identical runs.  Pseudonym
randomness is forked into per-agent generators at setup and never touches
the world stream.

The epoch kernel is change-driven.  At 00:00, 09:00 and 17:00 everyone
moves; in any other epoch only agents whose errand starts or ends, and
agents who entered or left quarantine, move.  Both go through the same
mover loop, which regroups only the cells they touched.  Encounter
logging looks only at those cells, contact transmission only at
cells holding an infectious agent, and the disease, test and release timers
only at agents with one due, read from an agenda kept by epoch.  Each visits
its agents by ascending id and its cells row-major, so every draw comes in
the order a full scan would make it.

Simplifications, by design: quarantine compliance is perfect (a Q agent
neither transmits nor acquires), testing is deterministic after the
configured delay and fires only while the agent is still infectious, and
notified agents are quarantined the moment a matching report is
published.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import Sequence, get_type_hints

from .authority import LocationStore, PublicBoard, detect_hotspots, export_hotspots_json
from .contact_store import ContactStore
from .crypto_ids import EPOCHS_PER_DAY, DailySeed, derive_next_seed, epoch_ids, report_from_seeds, report_id_set
from .pds import Granularity, PersonalDataStore, Purpose
from .secure_agg import CellIndexSpace

SECONDS_PER_EPOCH = 900
WORK_START, WORK_END = 36, 68  # 09:00-17:00
ERRAND_START, ERRAND_END = 68, 92  # 17:00-23:00
QUARANTINE_DAYS = 14
REPORT_WINDOW_DAYS = 14
ENCOUNTER_DURATION_MIN = 15
ENCOUNTER_ATTENUATION = 30
WORLD_CELL_DEG = 0.01  # one world cell = one Grid(0.01) cell
PDS_SAMPLE_EVERY = 4  # one location fix per hour
PDS_RETENTION_DAYS = 15
STORE_PRUNE_EVERY_DAYS = 7
DENSITY_BIN_SECONDS = 3600  # the analysis bins, as wide as the upload bins


class ConfigError(ValueError):
    """Scenario validation failure; carries the offending field name."""

    def __init__(self, field_name: str, message: str) -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class Intervention(Enum):
    NONE = "none"
    CONTACT_TRACING = "contact"
    CONTACT_AND_LOCATION = "contact+location"

    @property
    def traces_contacts(self) -> bool:
        return self is not Intervention.NONE

    @property
    def uploads_location(self) -> bool:
        return self is Intervention.CONTACT_AND_LOCATION


@dataclass(frozen=True)
class ScenarioConfig:
    n_agents: int = 500
    width: int = 20
    height: int = 20
    adoption: float = 0.6
    beta_contact: float = 0.012
    beta_fomite: float = 0.0
    deposit_rate: float = 1.0
    decay_half_life_days: float = 0.5
    e_mean_days: float = 3.0
    i_mean_days: float = 5.0
    test_delay_days: float = 2.0
    intervention: Intervention = Intervention.NONE
    shared_space_cells: tuple[tuple[int, int], ...] = ()
    seed: int = 0
    horizon_days: int = 120
    n_index_cases: int = 5
    n_workplaces: int = 160  # 0 = everyone works from home

    def __post_init__(self) -> None:
        self.validate()  # every construction is checked, so a config that exists is valid

    def validate(self) -> None:
        for name, kind in get_type_hints(type(self)).items():
            if problem := _type_problem(getattr(self, name), kind):
                raise ConfigError(name, problem)
        for name in ("n_agents", "width", "height", "horizon_days"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        for name in ("adoption", "beta_contact"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(name, f"{getattr(self, name)} outside [0, 1]")
        for name in ("beta_fomite", "deposit_rate", "test_delay_days", "n_workplaces"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        for name in ("decay_half_life_days", "e_mean_days", "i_mean_days"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be > 0")
        if not 0 <= self.n_index_cases <= self.n_agents:
            raise ConfigError("n_index_cases", "must be in [0, n_agents]")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed", "must fit in u64")
        seen = set()
        for x, y in self.shared_space_cells:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ConfigError("shared_space_cells", f"cell {(x, y)} outside the grid")
            if (x, y) in seen:  # errands draw from the list, so a repeat would double its share
                raise ConfigError("shared_space_cells", f"cell {(x, y)} listed twice")
            seen.add((x, y))
        n_residential = self.width * self.height - len(seen)
        if n_residential == 0:
            raise ConfigError("shared_space_cells", "no non-shared cells left to live in")
        if self.n_workplaces > n_residential:
            raise ConfigError("n_workplaces", "more workplaces than non-shared cells")

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["intervention"] = self.intervention.value
        obj["shared_space_cells"] = [list(c) for c in self.shared_space_cells]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("<file>", "top-level config must be an object")
        types = get_type_hints(cls)
        for key in obj:
            if key not in types:
                raise ConfigError(key, "unknown config field")
        kwargs = dict(obj)
        if "intervention" in kwargs:
            try:
                kwargs["intervention"] = Intervention(kwargs["intervention"])
            except ValueError:
                raise ConfigError("intervention", f"unknown intervention {kwargs['intervention']!r}") from None
        cells = kwargs.get("shared_space_cells")
        if isinstance(cells, list):
            kwargs["shared_space_cells"] = tuple(tuple(c) if isinstance(c, list) else c for c in cells)
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_json(read_config_json(path))


def read_config_json(path: str | Path):
    """Parsed JSON of a config file.  A file that cannot be read (missing, a
    directory, no permission) and any ValueError while parsing it (bad
    syntax, an integer past Python's digit limit, undecodable bytes) is a
    ConfigError, so the CLI reports it as a usage error."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError("<file>", f"cannot read: {e}") from None
    except ValueError as e:
        raise ConfigError("<file>", f"invalid JSON: {e}") from None


def _type_problem(value, kind: type) -> str | None:
    """Why ``value`` cannot fill a field annotated ``kind``, or None if it can.  Booleans are
    not numbers, and a float field takes a finite float or an int that a float can hold."""
    if kind == tuple[tuple[int, int], ...]:
        pairs = isinstance(value, tuple) and all(
            isinstance(c, tuple) and len(c) == 2 and not any(_type_problem(v, int) for v in c) for c in value
        )
        return None if pairs else "expected a list of [x, y] integer pairs"
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return f"expected {kind.__name__}, got {value!r}"
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN and inf compare False
        return "must be a finite number"
    return None


@dataclass(frozen=True)
class InfectionEvent:
    epoch: int
    infectee: int
    infector: int | None  # None = environmental (surface) pickup
    channel: str  # "contact" | "fomite" | "seed"
    cell: tuple[int, int]
    generation: int

    def __str__(self) -> str:
        infector = "-" if self.infector is None else self.infector
        return (
            f"INFECT epoch={self.epoch} channel={self.channel} infectee={self.infectee} "
            f"infector={infector} cell={self.cell[0]},{self.cell[1]} generation={self.generation}"
        )


@dataclass(frozen=True)
class NotifyEvent:
    epoch: int
    source: int  # whose report triggered the match
    target: int
    disease_at: str  # target's underlying disease state when notified

    def __str__(self) -> str:
        return f"NOTIFY epoch={self.epoch} source={self.source} target={self.target} disease={self.disease_at}"


@dataclass(frozen=True)
class TestEvent:
    epoch: int
    agent: int

    def __str__(self) -> str:
        return f"TEST epoch={self.epoch} agent={self.agent}"


def _view(kind: type) -> property:
    """A read-only view of ``Simulation.events``: its events of one kind, in order."""
    return property(lambda sim: tuple(e for e in sim.events if isinstance(e, kind)))


@dataclass
class SimMetrics:
    n_agents: int
    days: int
    attack_rate: float
    total_infected: int
    r_eff_by_generation: list[float]
    traced_fraction: float
    hotspot_recall: float | None
    hotspot_precision: float | None
    quarantine_person_days: float
    detectable_pair_fraction: float | None
    contact_pairs: int

    def to_json(self) -> dict:
        return asdict(self)


class Agent:
    """One simulated citizen; plain slots class for loop speed.  A carrier's
    ``store`` is complete at every day boundary and, within a day, lags by at
    most the open run of its cell (see ``Simulation``); its ``pds`` lags by
    today's location ``fixes``, buffered as (t, cell) pairs."""

    __slots__ = (
        "id", "home", "work", "has_app", "state", "disease", "generation", "tested", "q_until",
        "cell", "errand_epoch", "errand_cell",
        "seed_chain", "store", "pds", "fixes",
    )

    def __init__(self, agent_id: int, home: int, work: int, has_app: bool) -> None:
        self.id = agent_id
        self.home = home
        self.work = work
        self.has_app = has_app
        self.state = "S"
        self.disease = "S"
        self.generation: int | None = None
        self.tested = False
        self.q_until = 0
        self.cell = home
        self.errand_epoch = -1
        self.errand_cell = -1
        self.seed_chain: list[DailySeed] = []
        self.store: ContactStore | None = None
        self.pds: PersonalDataStore | None = None
        self.fixes: list[tuple[int, int]] | None = None  # a location-mode carrier's, not yet in pds


class Simulation:
    """One scenario run; create, call run(), then read metrics/artifacts.

    The occupancy (cell -> members in ascending id) lives from one epoch to
    the next.  One mover loop places the movers: everyone at 00:00, 09:00
    and 17:00, and in between agents whose errand is this epoch or the last,
    and agents who entered or left Q (a positive always counts).  Their old
    and new cells are the only ones regrouped and the only ones the
    encounter log looks at; at 00:00 that is every occupied cell, so every
    run reopens.

    Encounter logging is deferred while a cell's carriers stay together: a
    cell's open run goes to its carriers' stores, one call each, when the
    group changes, when the cell has no group for an epoch, at day end, or
    before a positive in it has its report checked.  So every ``store`` is
    complete at each day boundary and lags by at most its open run.

    Timers are bookings on one agenda, ``_due``: epoch -> (agent id, event)
    for "I" (E->I), "R" (I->R), "out" (Q may end) and "test".  Each epoch
    runs every booking's step and release check by (id, event), then tests.

    ``events`` is the run's record: every infection (index cases first),
    positive test and notification, appended as it happens, so in epoch
    order and each notification after its source's test.  ``infections``,
    ``tests`` and ``notifications`` are read-only views of it.  ``board``
    keeps every report published over the run, unpruned: the contact
    channel's only record.
    """

    infections, tests, notifications = _view(InfectionEvent), _view(TestEvent), _view(NotifyEvent)

    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.epoch = 0
        self.width, self.height = cfg.width, cfg.height
        self._n_cells = cfg.width * cfg.height
        self._shared = [self._cell_id(x, y) for x, y in cfg.shared_space_cells]
        self.contamination: dict[int, float] = {c: 0.0 for c in self._shared}
        self._decay_factor = 2.0 ** (-1.0 / (cfg.decay_half_life_days * EPOCHS_PER_DAY))

        self.board = PublicBoard()
        self.location_store = LocationStore()
        self._location_pseudonyms: set[bytes] = set()
        # a location fix reports the centre of the agent's cell
        self._centres = [
            ((x + 0.5) * WORLD_CELL_DEG, (y + 0.5) * WORLD_CELL_DEG)
            for x in range(cfg.width)
            for y in range(cfg.height)
        ]

        self.events: list[InfectionEvent | TestEvent | NotifyEvent] = []
        self.day_counts: list[list[int]] = []  # S, E, I, R, Q at each day's close
        self._q_epochs = 0
        self._n_q = 0  # agents in Q now
        self._infectious: set[int] = set()  # agents whose disease is I
        self._due: dict[int, list[tuple[int, str]]] = {}  # epoch -> (agent id, event) bookings
        self._movers: set[int] = set()  # agents to place at the next move
        self._errands: list[list[int]] = [[] for _ in range(EPOCHS_PER_DAY)]  # today's, by epoch
        self._changed: set[int] = set()  # cells whose group may differ from the last epoch
        self._run_stop = 0  # one past the last epoch whose encounters were logged
        # the contact graph: every agent ever co-located with each agent
        self._partners: dict[int, set[int]] = {aid: set() for aid in range(cfg.n_agents)}
        self._groups: dict[int, tuple[list[Agent], list[Agent]]] = {}  # cell -> last (members, carriers) logged
        self._runs: dict[int, int] = {}  # cell -> the first epoch of its open run

        self.agents = self._build_agents()
        self._trackers = [a for a in self.agents if a.fixes is not None]
        self._occupancy: dict[int, list[Agent]] = {}  # everyone starts at home
        for agent in self.agents:
            self._occupancy.setdefault(agent.home, []).append(agent)
        self._seed_index_cases()

    # -- setup ---------------------------------------------------------------

    def _cell_id(self, x: int, y: int) -> int:
        return x * self.height + y

    def cell_xy(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.height)

    def _build_agents(self) -> list[Agent]:
        cfg, rng = self.cfg, self.rng
        shared = set(self._shared)
        residential = [c for c in range(self._n_cells) if c not in shared]
        workplaces = rng.sample(residential, cfg.n_workplaces) if cfg.n_workplaces > 0 else []
        # quota sampling gives exactly round(p*N) carriers, so measured
        # adoption effects are not blurred by realized-p noise
        n_app = round(cfg.adoption * cfg.n_agents)
        app_ids = set(rng.sample(range(cfg.n_agents), n_app))
        agents = []
        for aid in range(cfg.n_agents):
            home = residential[rng.randrange(len(residential))]
            work = workplaces[rng.randrange(len(workplaces))] if workplaces else home
            has_app = aid in app_ids
            agent = Agent(aid, home, work, has_app)
            if has_app:
                agent.seed_chain = [DailySeed(0, rng.randbytes(32))]
                agent.store = ContactStore()
                agent.pds = PersonalDataStore(
                    rng=random.Random(rng.getrandbits(64)),
                    contact_store=agent.store,
                    retention_days=PDS_RETENTION_DAYS,
                )
                agent.pds.grant_consent(Purpose.LOCATION_UPLOAD)
                agent.fixes = [] if cfg.intervention.uploads_location else None
            agents.append(agent)
        return agents

    def _seed_index_cases(self) -> None:
        for aid in sorted(self.rng.sample(range(self.cfg.n_agents), self.cfg.n_index_cases)):
            agent = self.agents[aid]
            agent.state = agent.disease = "I"
            agent.generation = 0
            self._infectious.add(aid)
            self._book(self.rng.expovariate(1.0 / self.cfg.i_mean_days) * EPOCHS_PER_DAY, aid, "R")
            self._book(self.cfg.test_delay_days * EPOCHS_PER_DAY, aid, "test")
            self.events.append(InfectionEvent(0, aid, None, "seed", self.cell_xy(agent.home), 0))

    # -- the epoch kernel ------------------------------------------------------

    def run(self) -> SimMetrics:
        self._run_to_horizon()
        return self.metrics()

    def _run_to_horizon(self) -> None:
        total_epochs = self.cfg.horizon_days * EPOCHS_PER_DAY
        while self.epoch < total_epochs:
            self.step_epoch()

    def step_epoch(self) -> None:
        day, eod = divmod(self.epoch, EPOCHS_PER_DAY)
        if eod == 0:
            self._start_day(day)

        occupancy = self._move_agents(eod)

        if self.cfg.beta_contact > 0:
            self._contact_transmission(occupancy)
        self._fomite_step(occupancy)
        self._log_encounters(occupancy, day, eod)
        self._fire_timers(day)

        if self.cfg.intervention.uploads_location and eod % PDS_SAMPLE_EVERY == 0:
            self._sample_locations()

        if eod == EPOCHS_PER_DAY - 1:
            self._close_day(day)
        self.epoch += 1

    def _start_day(self, day: int) -> None:
        rng, shared = self.rng, self._shared
        prune_day = day % STORE_PRUNE_EVERY_DAYS == 0
        for agent in self.agents:
            if agent.has_app:
                if day > 0:
                    agent.seed_chain.append(derive_next_seed(agent.seed_chain[-1]))
                    if len(agent.seed_chain) > REPORT_WINDOW_DAYS:
                        del agent.seed_chain[0]
                if prune_day:
                    # lazy retention: stale records cannot match a fresh
                    # report anyway (their IDs derive from seeds outside
                    # every future report window), so weekly is enough
                    agent.store.prune(day)
        if not shared:
            return
        errands = self._errands = [[] for _ in range(EPOCHS_PER_DAY)]
        for agent in self.agents:
            agent.errand_epoch = rng.randrange(ERRAND_START, ERRAND_END)
            agent.errand_cell = shared[rng.randrange(len(shared))]
            errands[agent.errand_epoch].append(agent.id)

    def _move_agents(self, eod: int) -> dict[int, list[Agent]]:
        self._q_epochs += self._n_q
        occupancy, movers = self._occupancy, self._movers
        if eod in (0, WORK_START, WORK_END):
            movers.update(range(self.cfg.n_agents))
        movers.update(self._errands[eod], self._errands[eod - 1])
        changed = self._changed = set()
        left = set()  # cells someone left
        arrivals: dict[int, list[Agent]] = {}  # cell -> newcomers in ascending id
        for aid in sorted(movers):
            agent = self.agents[aid]
            old, cell = agent.cell, self._place(agent, eod)
            # a positive's flushed run reopens here, and at 00:00 every run
            changed.add(old)
            if cell != old:
                agent.cell = cell
                left.add(old)
                arrivals.setdefault(cell, []).append(agent)
        movers.clear()
        changed.update(arrivals)
        # a regrouped cell gets a new list, so _log_encounters' != spots a new group
        for cell in left.union(arrivals):
            members = [a for a in occupancy.pop(cell, ()) if a.cell == cell]
            new = arrivals.get(cell)
            if new:
                members = sorted(members + new, key=attrgetter("id")) if members else new
            if members:
                occupancy[cell] = members
        return occupancy

    def _place(self, agent: Agent, eod: int) -> int:
        """The cell today's routine puts an agent in at ``eod``.  An errand
        also buffers its fix for a location-mode carrier's PDS (see ``_write_fixes``)."""
        if agent.state == "Q":
            return agent.home
        if eod == agent.errand_epoch:
            if agent.fixes is not None:
                # hourly fixes would miss most 15-minute errands
                agent.fixes.append((self.epoch * SECONDS_PER_EPOCH, agent.errand_cell))
            return agent.errand_cell
        return agent.work if WORK_START <= eod < WORK_END else agent.home

    def _contact_transmission(self, occupancy: dict[int, list[Agent]]) -> None:
        beta, rng, agents = self.cfg.beta_contact, self.rng, self.agents
        for cell in sorted({agents[aid].cell for aid in self._infectious if agents[aid].state == "I"}):
            members = occupancy[cell]
            if len(members) < 2:
                continue
            infectious = [a for a in members if a.state == "I"]
            for target in members:
                if target.state != "S":
                    continue
                for source in infectious:
                    if rng.random() < beta:
                        self._infect(target, source, "contact", cell)
                        break

    def _fomite_step(self, occupancy: dict[int, list[Agent]]) -> None:
        """Deposit, pick up and decay, one shared cell at a time."""
        cfg, rng, contamination = self.cfg, self.rng, self.contamination
        for cell, level in contamination.items():
            members = occupancy.get(cell, ())
            level += cfg.deposit_rate * sum(a.state == "I" for a in members)
            if level > 0.0 and cfg.beta_fomite > 0.0:
                p_pickup = min(1.0, cfg.beta_fomite * level)
                for target in members:
                    if target.state == "S" and rng.random() < p_pickup:
                        self._infect(target, None, "fomite", cell)
            contamination[cell] = level * self._decay_factor

    def _infect(self, target: Agent, source: Agent | None, channel: str, cell: int) -> None:
        target.state = target.disease = "E"
        self._book(self.epoch + self.rng.expovariate(1.0 / self.cfg.e_mean_days) * EPOCHS_PER_DAY, target.id, "I")
        generation = 0 if source is None else source.generation + 1
        target.generation = generation
        self.events.append(
            InfectionEvent(self.epoch, target.id, source.id if source else None, channel, self.cell_xy(cell), generation)
        )

    def _log_encounters(self, occupancy: dict[int, list[Agent]], day: int, eod: int) -> None:
        # Only a changed cell can start or end a run; the others' open runs
        # go on to this epoch.  A run ends before the epoch its group changes
        # in, and an agent is in one cell, so runs written in any cell order
        # keep each store in epoch order.  The contact graph only grows: it
        # changes only when a group changes.  Fewer than 2 members never equal
        # a logged group, so their cell's run closes and its group stays.
        partners, groups, runs = self._partners, self._groups, self._runs
        for cell in self._changed:
            members = occupancy.get(cell, ())
            group = groups.get(cell)
            if group is None or group[0] != members:
                if cell in runs:
                    self._write_run(cell, day, eod)
                if len(members) < 2:
                    continue
                group = groups[cell] = (members, [a for a in members if a.has_app])
                member_ids = [a.id for a in members]
                for aid in member_ids:
                    peers = partners[aid]
                    peers.update(member_ids)
                    peers.discard(aid)
            if cell not in runs and len(group[1]) > 1:
                runs[cell] = eod
        self._run_stop = eod + 1

    def _write_run(self, cell: int, day: int, stop: int) -> None:
        """Close a cell's open run before epoch ``stop``: each carrier
        records the other carriers' IDs of every epoch in it, in epoch then
        member order.  Each carrier derives only the run's epochs, once for
        all the others."""
        start = self._runs.pop(cell)
        carriers = self._groups[cell][1]
        k = len(carriers)
        heard = [b""] * ((stop - start) * k)  # every carrier's IDs, epoch-major
        for j, a in enumerate(carriers):
            heard[j::k] = epoch_ids(a.seed_chain[-1].secret, start, stop)
        epochs = bytes(sorted(bytes(range(start, stop)) * (k - 1)))  # each once per other carrier
        for i, a in enumerate(carriers):
            observed = heard.copy()
            del observed[i::k]
            a.store.record_observations(observed, day, epochs, ENCOUNTER_DURATION_MIN, ENCOUNTER_ATTENUATION)

    def _book(self, at: float, aid: int, event: str) -> None:
        """File an agent's event under the first epoch at or after ``at``."""
        self._due.setdefault(max(math.ceil(at), self.epoch), []).append((aid, event))

    def _fire_timers(self, day: int) -> None:
        now, cfg = self.epoch, self.cfg
        due = sorted(self._due.pop(now, ()))
        for aid, event in due:
            agent = self.agents[aid]
            if event == "I":
                agent.disease = "I"
                self._infectious.add(aid)
                i_until = now + self.rng.expovariate(1.0 / cfg.i_mean_days) * EPOCHS_PER_DAY
                self._book(max(i_until, now + 1), aid, "R")  # not in the epoch of onset
                self._book(now + cfg.test_delay_days * EPOCHS_PER_DAY, aid, "test")
            elif event == "R":
                agent.disease = "R"
                self._infectious.discard(aid)
            if agent.state != "Q":  # outside Q the state is the disease
                agent.state = agent.disease
            elif now >= agent.q_until and (not agent.tested or agent.disease == "R"):
                # a positive stays in isolation until recovered
                agent.state = agent.disease
                self._n_q -= 1
                self._movers.add(aid)
        # with test_delay_days = 0 the steps above book tests for this epoch
        for aid, event in sorted(due + self._due.pop(now, [])):
            agent = self.agents[aid]
            # a recovered agent is not tested, nor one already tested directly
            if event == "test" and agent.disease == "I" and not agent.tested:
                self.on_positive_test(agent, day)

    def _quarantine(self, agent: Agent) -> None:
        """Put an agent in Q for the next QUARANTINE_DAYS."""
        if agent.state != "Q":
            agent.state = "Q"
            self._n_q += 1
            self._movers.add(agent.id)
        agent.q_until = self.epoch + QUARANTINE_DAYS * EPOCHS_PER_DAY  # an earlier "out" goes stale
        self._book(agent.q_until, agent.id, "out")

    def on_positive_test(self, agent: Agent, day: int) -> None:
        """Isolate a confirmed positive and fire the mode's app channels."""
        agent.tested = True
        self._quarantine(agent)
        self._movers.add(agent.id)  # its cell's run may be flushed below
        self.events.append(TestEvent(self.epoch, agent.id))

        mode = self.cfg.intervention
        if not (agent.has_app and mode.traces_contacts):
            return

        if agent.cell in self._runs:
            # the only open run that can hold the positive's IDs
            self._write_run(agent.cell, day, self._run_stop)
        report = report_from_seeds(agent.seed_chain[-REPORT_WINDOW_DAYS:])
        self.board.publish_report(report, published_day=day)
        ids = report_id_set(report)
        for peer_id in sorted(self._partners[agent.id]):
            peer = self.agents[peer_id]
            if not peer.has_app:
                continue
            events = peer.store.check_exposure_ids(ids)
            if not events:
                continue
            self.events.append(NotifyEvent(self.epoch, agent.id, peer.id, peer.disease))
            self._quarantine(peer)

        if mode.uploads_location:
            window = (max(0, day - (REPORT_WINDOW_DAYS - 1)), day)
            self._write_fixes(agent)  # the upload covers today so far
            payload, _consent = agent.pds.build_share_payload(
                Purpose.LOCATION_UPLOAD,
                Granularity.grid(WORLD_CELL_DEG, 60),
                window,
                now=self.epoch * SECONDS_PER_EPOCH,
            )
            self._location_pseudonyms.add(payload.pseudonym)
            self.location_store.ingest_location_payload(payload)

    def _sample_locations(self) -> None:
        t = self.epoch * SECONDS_PER_EPOCH
        for agent in self._trackers:
            agent.fixes.append((t, agent.cell))

    def _write_fixes(self, agent: Agent) -> None:
        """Write a carrier's buffered fixes to its PDS in one batch: at day
        end, and before its upload, so that it covers the positive's own day."""
        if agent.fixes:
            ts, cells = zip(*agent.fixes)
            agent.pds.append_locations(ts, *zip(*map(self._centres.__getitem__, cells)))
            agent.fixes.clear()

    def _close_day(self, day: int) -> None:
        for cell in list(self._runs):
            self._write_run(cell, day, EPOCHS_PER_DAY)
        for agent in self._trackers:
            self._write_fixes(agent)
        counts = Counter(agent.state for agent in self.agents)
        seirq = [counts[state] for state in "SEIRQ"]
        assert sum(seirq) == self.cfg.n_agents, "state conservation violated"
        self.day_counts.append(seirq)

    # -- results ---------------------------------------------------------------

    def density_space(self) -> CellIndexSpace:
        """Analysis space over every world cell, binned like the uploads.

        Hourly bins keep the anonymity threshold meaningful: one uploader
        contributes at most a visit or two per (cell, hour), so a count of
        K_ANON really means K_ANON people, not one person dwelling.
        """
        cells = tuple((x, y) for x in range(self.width) for y in range(self.height))
        bins = tuple(b * DENSITY_BIN_SECONDS for b in range(self.cfg.horizon_days * 86400 // DENSITY_BIN_SECONDS))
        return CellIndexSpace(cells, bins, DENSITY_BIN_SECONDS)

    def detected_hotspots(self):
        if not self.cfg.intervention.uploads_location:
            return []
        dmap = self.location_store.build_density_map(self.density_space())
        return detect_hotspots(dmap)

    def ground_truth_fomite_cells(self) -> set[tuple[int, int]]:
        return {e.cell for e in self.infections if e.channel == "fomite"}

    def metrics(self, hotspots: list | None = None) -> SimMetrics:
        """Run metrics; ``hotspots`` reuses a ``detected_hotspots()`` result."""
        cfg = self.cfg
        infections = self.infections
        total_infected = len({e.infectee for e in infections})

        members = Counter(e.generation for e in infections)
        caused = Counter(e.generation - 1 for e in infections if e.infector is not None)
        r_eff = [caused[g] / members[g] for g in range(max(members, default=-1) + 1) if members[g]]

        transmissions = [e for e in infections if e.channel != "seed"]
        # notified while still E, so after the target's one infection; an
        # environmental pickup has no infector and matches no pair
        pairs = {(n.target, n.source) for n in self.notifications if n.disease_at == "E"}
        traced = sum((e.infectee, e.infector) in pairs for e in transmissions)
        traced_fraction = traced / len(transmissions) if transmissions else 0.0

        truth = self.ground_truth_fomite_cells()
        if hotspots is None:
            hotspots = self.detected_hotspots()
        hotspot_cells = {h.cell for h in hotspots}
        if truth:
            recall = len(hotspot_cells & truth) / len(truth)
            precision = (len(hotspot_cells & truth) / len(hotspot_cells)) if hotspot_cells else None
        else:
            recall = None
            precision = None

        # the contact graph counts each pair once from each end
        contact_pairs = sum(map(len, self._partners.values())) // 2
        carriers = {a.id for a in self.agents if a.has_app}
        carrier_pairs = sum(len(self._partners[aid] & carriers) for aid in carriers) // 2
        pair_fraction = carrier_pairs / contact_pairs if contact_pairs else None

        return SimMetrics(
            n_agents=cfg.n_agents,
            days=cfg.horizon_days,
            attack_rate=total_infected / cfg.n_agents,
            total_infected=total_infected,
            r_eff_by_generation=r_eff,
            traced_fraction=traced_fraction,
            hotspot_recall=recall,
            hotspot_precision=precision,
            quarantine_person_days=self._q_epochs / EPOCHS_PER_DAY,
            detectable_pair_fraction=pair_fraction,
            contact_pairs=contact_pairs,
        )

    # -- channel audit -----------------------------------------------------------

    def contact_channel_identifiers(self) -> set[bytes]:
        """Everything observable on the contact channel over the whole run."""
        return self.board.identifier_set()

    def location_channel_identifiers(self) -> set[bytes]:
        """Pseudonyms that crossed the location channel over the whole run."""
        return set(self._location_pseudonyms)

    # -- artifacts ----------------------------------------------------------------

    def write_outputs(self, outdir: str | Path) -> SimMetrics:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        hotspots = self.detected_hotspots()
        metrics = self.metrics(hotspots)
        self._write_metrics_csv(outdir / "metrics.csv")
        self._write_events_log(outdir / "events.log")
        export_hotspots_json(hotspots, outdir / "hotspots.json")
        (outdir / "summary.json").write_text(json.dumps(metrics.to_json(), indent=2, sort_keys=True) + "\n")
        return metrics

    def _write_metrics_csv(self, path: Path) -> None:
        # each day's new infections, folded from the stream; index cases are not new
        new = Counter(e.epoch // EPOCHS_PER_DAY for e in self.infections if e.channel != "seed")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["day", "s", "e", "i", "r", "q", "new_infections"])
            w.writerows([day, *seirq, new[day]] for day, seirq in enumerate(self.day_counts))

    def _write_events_log(self, path: Path) -> None:
        Path(path).write_text("".join(f"{e}\n" for e in self.events))


def run_scenario(cfg: ScenarioConfig, outdir: str | Path | None = None) -> SimMetrics:
    """Run one scenario to completion; optionally write the artifact files,
    whose metrics come from the same one density-map build."""
    sim = Simulation(cfg)
    sim._run_to_horizon()
    return sim.metrics() if outdir is None else sim.write_outputs(outdir)


SWEEP_METRIC_COLUMNS = [
    "attack_rate",
    "total_infected",
    "traced_fraction",
    "quarantine_person_days",
    "detectable_pair_fraction",
    "hotspot_recall",
    "hotspot_precision",
]


def sweep(base: ScenarioConfig, axes: dict[str, Sequence], out_csv: str | Path | None = None) -> list[dict]:
    """Run the cartesian product of parameter axes over a base config.

    Every grid point reruns with its own (fixed) config, so a repeated
    sweep reproduces the same table.  ``out_csv``'s directory is created
    only once every grid point has passed its checks.
    """
    names = list(axes)
    for name in names:
        if not axes[name]:  # its empty grid would check nothing
            raise ConfigError(name, "sweep axis has no values")
    grid = [dict(zip(names, combo)) for combo in product(*(axes[n] for n in names))]
    # every grid point passes the config file's checks before anything runs
    configs = [type(base).from_json({**base.to_json(), **overrides}) for overrides in grid]
    if out_csv is not None:
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for overrides, cfg in zip(grid, configs):
        if "intervention" in overrides:
            overrides["intervention"] = cfg.intervention
        metrics = run_scenario(cfg)
        row = {n: overrides[n] for n in names}
        for col in SWEEP_METRIC_COLUMNS:
            row[col] = getattr(metrics, col)
        row["r_eff_by_generation"] = ";".join(f"{v:.6f}" for v in metrics.r_eff_by_generation)
        rows.append(row)
    if out_csv is not None:
        _write_sweep_csv(rows, names, Path(out_csv))
    return rows


def _write_sweep_csv(rows: list[dict], names: list[str], path: Path) -> None:
    header = names + SWEEP_METRIC_COLUMNS + ["r_eff_by_generation"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_csv_value(row[col]) for col in header] for row in rows)


def _csv_value(val):
    if isinstance(val, Intervention):
        return val.value
    if isinstance(val, float):
        return f"{val:.6f}"
    return "" if val is None else val


def default_shared_cells(width: int, height: int, k: int) -> tuple[tuple[int, int], ...]:
    """Evenly spread k shared-space cells across the grid, deterministically."""
    cells = []
    for idx in range(k):
        frac = (idx + 0.5) / k
        x = min(width - 1, int(frac * width))
        y = min(height - 1, int((0.5 + 0.37 * idx) % 1.0 * height))
        cells.append((x, y))
    return tuple(dict.fromkeys(cells))  # deduplicated, first occurrence kept
