"""The benchmark's workloads.

Each workload is a closed loop with one client.  One repeat of a workload
is ``setup`` (timed as set-up), ``days`` calls of ``step_day`` (each timed
as one day) and ``finish``, which writes the outputs and returns their
sha256 digests; the three together are one scenario.  ``after_day`` runs
untimed between days: it runs protocol operations, each timed on its
own, and verifies them.  ``verify`` runs after the scenario.  Inputs come
only from the seed.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from pathlib import Path

import protocol_ops as ops
from epitrace import authority, contact_store, crypto_ids, pds, secure_agg
from epitrace.sim import EPOCHS_PER_DAY, Intervention, ScenarioConfig, Simulation, default_shared_cells

DAY_SECONDS = 86400
UPLOAD_GRANULARITY = pds.Granularity.grid(0.01, 60)  # the simulator's location-upload granularity


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class LiveWorld:
    """A simulation plus what the between-day operations keep."""

    def __init__(self, sim: Simulation, seed: int) -> None:
        self.sim = sim
        self.rng = random.Random(f"ops:{seed}")
        self.oracle_ids: dict = {}
        self.app = [a for a in sim.agents if a.has_app]
        self.housemates = defaultdict(list)
        for a in self.app:
            self.housemates[a.home].append(a)
        self.space = sim.density_space()
        self.risk = None
        self.bin_start = 0


class SimWorkload:
    """A simulator scenario: construction, ``step_epoch`` day by day, and
    ``write_outputs``.  Between days, devices, the authority and citizens
    run protocol operations on the world as the day left it."""

    CHECK_REPORTS_PER_DAY = 2  # next positives whose seed chain is checked
    DEVICES_PER_REPORT = 12  # co-residents first, then random app users
    ROUTES_PER_DAY = 4
    PASS_EVERY_DAYS = 7  # authority pass on days 0, 7, 14, ...
    AGG_DAY_OFFSET = 3  # aggregation round on days 3, 10, 17, ...
    EPOCHS_PER_MARK = 24  # speed samples inside a day, between its quarters
    AGG_PARTICIPANTS = 20
    extra_setups = 4  # construction is cheap, so sample it a few more times
    traced_ops = False  # per-layer figures describe the scenario alone

    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg = cfg
        self.days = cfg.horizon_days

    def setup(self, rec: ops.Recorder) -> LiveWorld:
        return LiveWorld(Simulation(self.cfg), self.cfg.seed)

    def step_day(self, world: LiveWorld, rec: ops.Recorder, day: int) -> None:
        sim = world.sim
        for epoch in range(EPOCHS_PER_DAY):
            if epoch and epoch % self.EPOCHS_PER_MARK == 0:
                rec.mark()
            sim.step_epoch()

    def after_day(self, world: LiveWorld, rec: ops.Recorder, day: int) -> None:
        sim, rng, cfg = world.sim, world.rng, self.cfg
        # the next positives publish their chains; devices match locally
        for positive in rng.sample(world.app, self.CHECK_REPORTS_PER_DAY):
            report = crypto_ids.report_from_seeds(positive.seed_chain)
            near = [a for a in world.housemates[positive.home] if a is not positive][: self.DEVICES_PER_REPORT]
            for device in near + rng.sample(world.app, self.DEVICES_PER_REPORT - len(near)):
                ops.exposure_check(rec, device.store, report, world.oracle_ids)
            rec.mark()

        if day % self.PASS_EVERY_DAYS == 0:
            hotspots, world.risk = ops.authority_pass(rec, sim.location_store, world.space)
            world.bin_start = hotspots[0].bin_start if hotspots else day * DAY_SECONDS + 18 * 3600

        window = (max(0, day - 13), day)
        for a in rng.sample(world.app, self.ROUTES_PER_DAY):
            visits = a.pds.coarsened(UPLOAD_GRANULARITY, window)
            dest = rng.choice(cfg.shared_space_cells)
            ops.route_and_score(rec, cfg.width, cfg.height, sim.cell_xy(a.home), dest, world.risk, world.bin_start, visits)

        if day % self.PASS_EVERY_DAYS == self.AGG_DAY_OFFSET:
            # modality B: a cohort's visits today, one bin per cell
            day_space = secure_agg.CellIndexSpace(world.space.cells, (day * DAY_SECONDS,), DAY_SECONDS)
            vectors = []
            for a in rng.sample(world.app, self.AGG_PARTICIPANTS):
                visits = a.pds.coarsened(UPLOAD_GRANULARITY, (day, day))
                vectors.append(secure_agg.ContributionVector.from_visits(day_space, [(v.cell, v.bin_start) for v in visits]))
            ops.agg_round(rec, vectors, secure_agg.make_pairwise_seeds(len(vectors), rng))
        rec.verify_pending()  # the world moves on tomorrow

    def finish(self, world: LiveWorld, outdir: Path) -> dict[str, str]:
        world.sim.write_outputs(outdir)
        return {name: sha256_of(outdir / name) for name in ("events.log", "summary.json")}

    def verify(self, world: LiveWorld, rec: ops.Recorder) -> None:
        contact_ids = world.sim.contact_channel_identifiers()
        location_ids = world.sim.location_channel_identifiers()
        rec.check(
            not contact_ids & location_ids,
            f"contact ({len(contact_ids)}) and location ({len(location_ids)}) identifier sets intersect",
        )

    def held(self, world: LiveWorld) -> tuple[int, int]:
        return sum(len(a.store) for a in world.app), sum(len(a.pds) for a in world.app)

    def sim_counts(self, world: LiveWorld) -> dict[str, int]:
        return {"sim.infections": len(world.sim.infections), "sim.notifications": len(world.sim.notifications)}


def fomite_location(seed: int) -> SimWorkload:
    """The fomite-gap world (500 agents, adoption 0.9, no workplaces,
    fomite-only spread, 4 shared cells) with location uploads, run a week
    past the 15-day PDS retention horizon."""
    return SimWorkload(
        ScenarioConfig(
            n_agents=500,
            width=20,
            height=20,
            adoption=0.9,
            beta_contact=0.0,
            beta_fomite=0.05,
            deposit_rate=1.0,
            decay_half_life_days=0.5,
            intervention=Intervention.CONTACT_AND_LOCATION,
            shared_space_cells=default_shared_cells(20, 20, 4),
            horizon_days=21,
            n_index_cases=5,
            n_workplaces=0,
            test_delay_days=2.0,
            seed=seed,
        )
    )


def contact_workday(seed: int) -> SimWorkload:
    """The non-linkability world (500 agents, 160 workplaces, adoption
    0.6, beta_contact 0.012) with contact tracing only."""
    return SimWorkload(
        ScenarioConfig(
            n_agents=500,
            width=20,
            height=20,
            adoption=0.6,
            beta_contact=0.012,
            intervention=Intervention.CONTACT_TRACING,
            shared_space_cells=default_shared_cells(20, 20, 4),
            horizon_days=40,
            n_index_cases=5,
            n_workplaces=160,
            test_delay_days=2.0,
            seed=seed,
        )
    )


class ProtocolFixture:
    """Synthetic protocol state built through the public API."""

    def __init__(self) -> None:
        self.chains: list[list[crypto_ids.DailySeed]] = []
        self.stores: list[contact_store.ContactStore] = []
        self.board = authority.PublicBoard()
        self.location = authority.LocationStore()
        self.uploaders: list[pds.PersonalDataStore] = []
        self.histories: list[tuple] = []
        self.space: secure_agg.CellIndexSpace | None = None
        self.vectors: list[secure_agg.ContributionVector] = []
        self.pair_seeds: list[secure_agg.PairwiseSeed] = []
        self.hotspots: list = []
        self.risk = None
        self.oracle_ids: dict = {}


class ProtocolWorkload:
    """The protocol modules driven directly, with no simulator.

    A protocol day is the work one day of a deployment asks for: positives
    publish reports and every device checks each of them; the authority
    builds the density map, hotspots and risk map; citizens plan routes
    and score their history against it.  A scenario is one week of days,
    after which a cohort runs one masked-aggregation round.
    """

    WIDTH = HEIGHT = 20
    HORIZON_DAYS = 28  # density space: 400 cells x hourly bins over 4 weeks
    HISTORY_DAYS = 14
    N_POSITIVES = 14
    # device stores of fixed, mixed sizes from 100 to 10,000 records
    STORE_SIZES = tuple(round(100 * 100 ** (i / 23)) for i in range(24))
    MATCH_SHARE = 0.2  # share of a store's records observed from a positive
    REPORTS_PER_DAY = 4
    N_UPLOADERS = 300
    N_WORKPLACES = 160
    SHARED_CELLS = default_shared_cells(20, 20, 4)
    ROUTES_PER_DAY = 32
    AGG_PARTICIPANTS = 50
    AGG_DIMENSION = 1000
    days = 7
    extra_setups = 0
    traced_ops = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, rec: ops.Recorder) -> ProtocolFixture:
        rng = random.Random(f"protocol-ops:{self.seed}")
        fx = ProtocolFixture()
        for _ in range(self.N_POSITIVES):
            chain = [crypto_ids.DailySeed(0, rng.randbytes(32))]
            for _ in range(self.HISTORY_DAYS - 1):
                chain.append(crypto_ids.derive_next_seed(chain[-1]))
            fx.chains.append(chain)

        for size in self.STORE_SIZES:
            store = contact_store.ContactStore()
            for _ in range(size):
                day, epoch = rng.randrange(self.HISTORY_DAYS), rng.randrange(EPOCHS_PER_DAY)
                if rng.random() < self.MATCH_SHARE:
                    secret = fx.chains[rng.randrange(self.N_POSITIVES)][day].secret
                    observed = crypto_ids.derive_epoch_id(secret, epoch)
                else:
                    observed = rng.randbytes(crypto_ids.EPHID_BYTES)
                store.record_encounter(
                    contact_store.EncounterRecord(observed, day, epoch, rng.randrange(1, 16), rng.randrange(101))
                )
            fx.stores.append(store)
            rec.mark()

        cells = [(x, y) for x in range(self.WIDTH) for y in range(self.HEIGHT)]
        residential = [c for c in cells if c not in self.SHARED_CELLS]
        workplaces = rng.sample(residential, self.N_WORKPLACES)
        for _ in range(self.N_UPLOADERS):
            home, work = rng.choice(residential), rng.choice(workplaces)
            store = pds.PersonalDataStore(rng=random.Random(rng.getrandbits(64)), retention_days=15)
            store.grant_consent(pds.Purpose.LOCATION_UPLOAD)
            for day in range(self.HISTORY_DAYS):
                errand_hour, errand = rng.randrange(17, 23), rng.choice(self.SHARED_CELLS)
                for hour in range(24):
                    cell = errand if hour == errand_hour else work if 9 <= hour < 17 else home
                    t = (day * 24 + hour) * 3600 + rng.randrange(3600)
                    store.append_location(pds.LocationPoint((cell[0] + 0.5) * 0.01, (cell[1] + 0.5) * 0.01, t))
            payload, _ = store.build_share_payload(
                pds.Purpose.LOCATION_UPLOAD,
                UPLOAD_GRANULARITY,
                (0, self.HISTORY_DAYS - 1),
                now=self.HISTORY_DAYS * DAY_SECONDS,
            )
            fx.location.ingest_location_payload(payload)
            fx.uploaders.append(store)
            fx.histories.append(payload.body)
            if len(fx.uploaders) % 25 == 0:
                rec.mark()
        fx.space = secure_agg.CellIndexSpace(
            tuple(cells), tuple(b * 3600 for b in range(self.HORIZON_DAYS * 24)), 3600
        )

        agg_space = secure_agg.CellIndexSpace(tuple(range(self.AGG_DIMENSION)), (0,), DAY_SECONDS)
        fx.vectors = [
            secure_agg.ContributionVector(agg_space, tuple(rng.randrange(5) for _ in range(self.AGG_DIMENSION)))
            for _ in range(self.AGG_PARTICIPANTS)
        ]
        fx.pair_seeds = secure_agg.make_pairwise_seeds(self.AGG_PARTICIPANTS, rng)
        return fx

    def step_day(self, fx: ProtocolFixture, rec: ops.Recorder, day: int) -> None:
        reports = []
        for k in range(self.REPORTS_PER_DAY):
            n = day * self.REPORTS_PER_DAY + k
            chain = fx.chains[n % self.N_POSITIVES]
            length = 1 + (5 * n) % self.HISTORY_DAYS  # 1..14 days, cycling
            report = crypto_ids.report_from_seeds(chain[self.HISTORY_DAYS - length :])
            fx.board.publish_report(report, published_day=day)
            reports.append(report)
        for report in reports:
            rec.mark()
            for store in fx.stores:
                ops.exposure_check(rec, store, report, fx.oracle_ids)
        rec.mark()

        fx.hotspots, fx.risk = ops.authority_pass(rec, fx.location, fx.space)

        for k in range(self.ROUTES_PER_DAY):
            n = day * self.ROUTES_PER_DAY + k
            origin = fx.space.cells[(37 * n) % len(fx.space.cells)]
            dest = fx.space.cells[(101 * n + 211) % len(fx.space.cells)]
            bin_start = fx.hotspots[n % len(fx.hotspots)].bin_start if fx.hotspots else 0
            visits = fx.histories[n % len(fx.histories)]
            ops.route_and_score(rec, self.WIDTH, self.HEIGHT, origin, dest, fx.risk, bin_start, visits)

    def after_day(self, fx: ProtocolFixture, rec: ops.Recorder, day: int) -> None:
        if day == self.days - 1:
            ops.agg_round(rec, fx.vectors, fx.pair_seeds)
        rec.verify_pending()

    def finish(self, fx: ProtocolFixture, outdir: Path) -> dict[str, str]:
        outdir.mkdir(parents=True, exist_ok=True)
        authority.export_hotspots_json(fx.hotspots, outdir / "hotspots.json")
        authority.export_risk_csv(fx.risk, outdir / "risk.csv")
        return {name: sha256_of(outdir / name) for name in ("hotspots.json", "risk.csv")}

    def verify(self, fx: ProtocolFixture, rec: ops.Recorder) -> None:
        rec.check(bool(fx.hotspots), "the authority found no hotspot in the uploads")

    def held(self, fx: ProtocolFixture) -> tuple[int, int]:
        return sum(len(s) for s in fx.stores), sum(len(p) for p in fx.uploaders)

    def sim_counts(self, fx: ProtocolFixture) -> dict[str, int]:
        return {}


WORKLOADS = {
    "fomite-location": fomite_location,
    "contact-workday": contact_workday,
    "protocol-ops": ProtocolWorkload,
}
