"""Command-line front door: scenario runs, sweeps, and protocol demos.

Exit codes: 0 success, 1 runtime failure (including a demo whose
self-check fails), 2 usage or config validation error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

from .authority import cell_to_json, resolve_and_notify
from .contact_store import ContactStore, EncounterRecord
from .crypto_ids import DailySeed, EscrowTable, derive_epoch_id, derive_next_seed, report_from_seeds
from .pds import CellLabelMap, Granularity, LocationPoint, SpatialLevel, coarsen
from .secure_agg import (
    PARTICIPANT_BOUND,
    CellIndexSpace,
    ContributionVector,
    aggregate,
    make_pairwise_seeds,
    mask_contribution,
    seeds_for,
)
from .sim import ConfigError, Intervention, ScenarioConfig, read_config_json, run_scenario, sweep

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_MODE_NAMES = {m.value: m for m in Intervention}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epitrace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario and write artifacts")
    p_sim.add_argument("--config", type=Path, required=True, help="scenario JSON file")
    p_sim.add_argument("--out", type=Path, required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--mode", choices=sorted(_MODE_NAMES), default=None, help="override the intervention")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid of scenarios")
    p_sweep.add_argument("--config", type=Path, required=True, help='JSON {"base": {...}, "sweep": {field: [values]}}')
    p_sweep.add_argument("--out", type=Path, required=True)
    p_sweep.add_argument("--seed", type=int, default=None)

    p_trace = sub.add_parser("trace-demo", help="end-to-end exposure matching on synthetic encounters")
    p_trace.add_argument("--users", type=int, default=4)
    p_trace.add_argument("--out", type=Path, default=None)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--isolated", action="store_true", help="users never co-locate (no encounters at all)")

    p_agg = sub.add_parser("aggregate-demo", help="secure aggregation round against the plaintext oracle")
    p_agg.add_argument("--participants", type=int, default=5)
    p_agg.add_argument("--dimension", type=int, default=8)
    p_agg.add_argument("--out", type=Path, default=None)
    p_agg.add_argument("--seed", type=int, default=0)

    p_coarse = sub.add_parser("coarsen-demo", help="coarsen one synthetic trajectory at several granularities")
    p_coarse.add_argument("--out", type=Path, default=None)
    p_coarse.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    handlers = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "trace-demo": cmd_trace_demo,
        "aggregate-demo": cmd_aggregate_demo,
        "coarsen-demo": cmd_coarsen_demo,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # surfaced as a runtime failure, not a traceback
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "mode", None) is not None:
        cfg = replace(cfg, intervention=_MODE_NAMES[args.mode])
    return cfg  # replace() builds a new config, which checks itself


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(ScenarioConfig.from_json_file(args.config), args)
    metrics = run_scenario(cfg, args.out)
    print(f"attack_rate={metrics.attack_rate:.4f} total_infected={metrics.total_infected}")
    print(f"traced_fraction={metrics.traced_fraction:.4f} quarantine_person_days={metrics.quarantine_person_days:.1f}")
    if metrics.r_eff_by_generation:
        series = " ".join(f"{v:.3f}" for v in metrics.r_eff_by_generation)
        print(f"r_eff_by_generation: {series}")
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    obj = read_config_json(args.config)
    if not isinstance(obj, dict) or "base" not in obj or "sweep" not in obj:
        raise ConfigError("<file>", 'sweep config must be {"base": {...}, "sweep": {...}}')
    base = _apply_overrides(ScenarioConfig.from_json(obj["base"]), args)
    axes = obj["sweep"]
    if not isinstance(axes, dict) or not all(isinstance(v, list) for v in axes.values()):
        raise ConfigError("sweep", "each sweep axis must map a field to a list of values")
    rows = sweep(base, axes, out_csv=args.out / "sweep.csv")
    print(f"{len(rows)} runs -> {args.out / 'sweep.csv'}")
    return EXIT_OK


def cmd_trace_demo(args) -> int:
    """Synthesize encounters, mark user 0 positive, match in both modes."""
    if args.users < 2:
        print("trace-demo needs at least 2 users", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    n = args.users
    days = 3

    chains: list[list[DailySeed]] = []
    for _ in range(n):
        chain = [DailySeed(0, rng.randbytes(32))]
        for _day in range(1, days):
            chain.append(derive_next_seed(chain[-1]))
        chains.append(chain)
    stores = [ContactStore() for _ in range(n)]
    escrow = EscrowTable()
    for uid in range(n):
        for seed in chains[uid]:
            escrow.escrow_register(seed, f"user-{uid}")

    # full-epoch close encounters between user 0 and every odd user,
    # plus distant (filtered) encounters with the rest
    met_user0 = set()
    if not args.isolated:
        for uid in range(1, n):
            day = rng.randrange(days)
            epoch = rng.randrange(96)
            close = uid % 2 == 1
            attenuation = 30 if close else 80
            stores[0].record_encounter(
                EncounterRecord(derive_epoch_id(chains[uid][day].secret, epoch), day, epoch, 15, attenuation)
            )
            stores[uid].record_encounter(
                EncounterRecord(derive_epoch_id(chains[0][day].secret, epoch), day, epoch, 15, attenuation)
            )
            if close:
                met_user0.add(f"user-{uid}")

    report = report_from_seeds(chains[0])
    decentralized = set()
    lines = [f"positive: user-0 (report covers days 0..{days - 1})"]
    for uid in range(1, n):
        events = stores[uid].check_exposure(report)
        for ev in events:
            lines.append(f"user-{uid}: exposed day={ev.day} minutes={ev.cumulative_min} epochs={list(ev.matched_epochs)}")
        if events:
            decentralized.add(f"user-{uid}")
    if not decentralized:
        lines.append("no exposures matched")

    digests = stores[0].qualifying_contact_digests()
    centralized = resolve_and_notify(escrow, digests)
    lines.append(f"decentralized matches: {sorted(decentralized)}")
    lines.append(f"centralized notified:  {sorted(centralized)}")

    print("\n".join(lines))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "trace_demo.txt").write_text("\n".join(lines) + "\n")
    if centralized != decentralized or decentralized != met_user0:
        print("mode mismatch: centralized and decentralized disagree", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_aggregate_demo(args) -> int:
    # a round at the bound is rejected here, before its N(N-1)/2 pairwise seeds are built
    if not 1 <= args.participants < PARTICIPANT_BOUND or args.dimension < 1:
        print(f"need 1 <= --participants < {PARTICIPANT_BOUND} and --dimension >= 1", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    n, d = args.participants, args.dimension
    space = CellIndexSpace(tuple(range(d)), (0,), bin_seconds=3600)
    vectors = [
        ContributionVector(space, tuple(rng.randrange(0, 100) for _ in range(d)))
        for _ in range(n)
    ]
    seeds = make_pairwise_seeds(n, rng)
    shares = [mask_contribution(vectors[i], i, seeds_for(i, seeds), n) for i in range(n)]
    result = aggregate(shares, n, d)
    expected = [sum(v.counts[k] for v in vectors) for k in range(d)]

    show = min(d, 10)
    print(f"aggregate ({n} participants, dimension {d}):")
    print(f"  secure: {result[:show]}{'...' if d > show else ''}")
    print(f"  oracle: {expected[:show]}{'...' if d > show else ''}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "aggregate_demo.json").write_text(
            json.dumps({"secure": result, "plaintext": expected}, indent=2) + "\n"
        )
    if result != expected:
        print("MISMATCH between secure aggregate and plaintext sum", file=sys.stderr)
        return EXIT_RUNTIME
    print("  exact match")
    return EXIT_OK


def cmd_coarsen_demo(args) -> int:
    rng = random.Random(args.seed)
    points = []
    lat, lon = 43.72, 10.40
    t = 0
    for _ in range(200):
        lat += rng.uniform(-0.002, 0.002)
        lon += rng.uniform(-0.002, 0.002)
        t += rng.randrange(60, 600)
        points.append(LocationPoint(lat, lon, t))

    muni = CellLabelMap({}, cell_deg=0.1, fallback_prefix="town")
    grans = [
        ("grid 0.001deg / 15min", Granularity.grid(0.001, 15)),
        ("grid 0.01deg / 60min", Granularity.grid(0.01, 60)),
        ("municipality / 1day", Granularity(SpatialLevel.MUNICIPALITY, None, 1440, muni)),
    ]
    lines = [f"{len(points)} raw points over {t} seconds"]
    report = {}
    for label, g in grans:
        visits = coarsen(points, g)
        cells = {v.cell for v in visits}
        lines.append(f"{label}: {len(visits)} visits across {len(cells)} cells")
        report[label] = [
            {"cell": cell_to_json(v.cell), "bin_start": v.bin_start, "dwell_min": v.dwell_min}
            for v in visits
        ]
    print("\n".join(lines))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "coarsen_demo.json").write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
