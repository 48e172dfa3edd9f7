"""Run one epitrace benchmark workload under one seed.

    python3 bench/run.py --workload fomite-location --seed 7 --seconds 25 --trace 0

Runs one workload in this process under the given seed, checks every
output against an independent oracle, prints each metric with its unit
and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced run.  Times are reported at reference machine speed (see
``SpeedProbe``).  Outputs and trace files go to ``.bench_out/`` in the
checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPEATS = 2  # digests are compared across repeats of one seed
TRACED_REPEATS = 2  # work counts must repeat exactly across these
REFERENCE_ITERATIONS = 4000
# median time of the reference loop on the 2-core x86-64 sandbox (Python
# 3.11) where the bounds were set
REFERENCE_S = 0.0075
NEAREST = 2  # reference samples around a piece of a span that scale it

END_TO_END = [
    ("setup_s", "s"),
    ("scenario_s", "s"),
    ("day_ms_p50", "ms"),
    ("day_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("exposure_check_ms_p50", "ms"),
    ("exposure_check_ms_p99", "ms"),
    ("agg_round_ms_p50", "ms"),
    ("density_ms_p50", "ms"),
    ("route_ms_p50", "ms"),
]

Span = tuple[float, float]


class SpeedProbe:
    """Tracks how fast the machine runs around each timed span.

    On a shared machine the same work can take twice as long from one
    minute to the next.  The probe times a fixed pure-Python loop
    (hashing, dict and tuple work) at every boundary the runner and the
    operations cross.  ``measured`` is a span's duration without the
    reference samples taken inside it.  ``scaled`` cuts the span at those
    samples and divides each piece by the median reference time around it
    over ``REFERENCE_S``: the span's time at reference speed.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # leave the program's collector schedule alone
        try:
            started = time.perf_counter()
            digest, table, items = bytes(32), {}, []
            for i in range(REFERENCE_ITERATIONS):
                digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
                key = digest[:8]
                table[key] = table.get(key, 0) + i
                items.append((i, key))
            sum(table[key] & 0xFF for _, key in items)
            ended = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append((started + ended) / 2)
        self.durations.append(ended - started)

    def factor(self, span: Span) -> float:
        """The NEAREST reference samples around the span's middle, as a
        multiple of REFERENCE_S."""
        mid = bisect_left(self.times, (span[0] + span[1]) / 2)
        lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.durations[lo : lo + NEAREST]) / REFERENCE_S

    def pieces(self, span: Span) -> list[Span]:
        """The span cut at the reference samples taken inside it."""
        lo, hi = bisect_left(self.times, span[0]), bisect_right(self.times, span[1])
        out, start = [], span[0]
        for mid, duration in zip(self.times[lo:hi], self.durations[lo:hi]):
            out.append((start, mid - duration / 2))
            start = mid + duration / 2
        out.append((start, span[1]))
        return out

    def measured(self, span: Span) -> float:
        return sum(b - a for a, b in self.pieces(span))

    def scaled(self, span: Span) -> float:
        return sum((b - a) / self.factor((a, b)) for a, b in self.pieces(span))


def percentile(samples: list[float], p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class Repeat:
    def __init__(self, setup: Span, days: list[Span], finish: Span, digests: dict, state) -> None:
        self.setup = setup
        self.days = days
        self.finish = finish
        self.digests = digests
        self.state = state

    def scenario(self, duration) -> float:
        """Set-up, days and outputs; ``duration`` maps a span to seconds."""
        return duration(self.setup) + sum(duration(d) for d in self.days) + duration(self.finish)


def timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, (started, time.perf_counter())


def run_repeat(workload, rec, outdir: Path, *, between_days: bool = True, tracer=None) -> Repeat:
    """One scenario: set-up, every day, then the outputs; checked after.

    The between-day operations are timed on their own and are not part of
    the scenario.
    """
    rec.mark()
    state, setup = timed(workload.setup, rec)
    if tracer:
        tracer.sample_held(*workload.held(state))
    days = []
    for day in range(workload.days):
        rec.mark()
        days.append(timed(workload.step_day, state, rec, day)[1])
        if tracer:
            tracer.sample_held(*workload.held(state))
        if between_days:
            rec.mark()
            # the program's collector schedule should not see our garbage
            gc.disable()
            try:
                workload.after_day(state, rec, day)
            finally:
                gc.enable()
    rec.mark()
    digests, finish = timed(workload.finish, state, outdir)
    rec.mark()
    rec.verify_pending()
    workload.verify(state, rec)
    return Repeat(setup, days, finish, digests, state)


def check_digests(rec, repeats: list[Repeat]) -> None:
    for i, rep in enumerate(repeats[1:], start=1):
        rec.check(rep.digests == repeats[0].digests, f"repeat {i} outputs differ from repeat 0: {rep.digests}")


def measure(workload, rec, outdir: Path, probe: SpeedProbe, seconds: float, import_span: Span, seed: int):
    """Untraced run: repeat the scenario while the next repeat still fits
    in ``seconds``, at least twice.  Returns, per metric, the value at
    reference speed, the measured value and the sample count, and writes
    every span and reference sample to a timeline file."""
    setups = []
    for _ in range(workload.extra_setups):
        probe.sample()
        setups.append(timed(workload.setup, rec)[1])
    probe.sample()
    repeats: list[Repeat] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        repeat_started = time.perf_counter()
        rep = run_repeat(workload, rec, outdir)
        rep.state = None
        repeats.append(rep)
        last = time.perf_counter() - repeat_started
        if len(repeats) >= MIN_REPEATS and time.perf_counter() - started + last > seconds:
            break
    check_digests(rec, repeats)
    setups += [r.setup for r in repeats]
    days = [d for r in repeats for d in r.days]
    ops = rec.ops

    def summary(duration) -> dict[str, float]:
        def ms(op_parts: list[list[Span]]) -> list[float]:
            return [sum(duration(s) for s in parts) * 1000.0 for parts in op_parts]

        day_ms, checks = ms([d] for d in days), ms(ops["exposure_check"])
        return {
            "setup_s": duration(import_span) + statistics.median(duration(s) for s in setups),
            "scenario_s": statistics.median(r.scenario(duration) for r in repeats),
            "day_ms_p50": statistics.median(day_ms),
            "day_ms_p90": percentile(day_ms, 90),
            "exposure_check_ms_p50": statistics.median(checks),
            "exposure_check_ms_p99": percentile(checks, 99),
            "agg_round_ms_p50": statistics.median(ms(ops["agg_round"])),
            "density_ms_p50": statistics.median(ms(ops["density"])),
            "route_ms_p50": statistics.median(ms(ops["route"])),
        }

    counts = {
        "setup_s": len(setups),
        "scenario_s": len(repeats),
        "day_ms_p50": len(days),
        "day_ms_p90": len(days),
        "exposure_check_ms_p50": len(ops["exposure_check"]),
        "exposure_check_ms_p99": len(ops["exposure_check"]),
        "agg_round_ms_p50": len(ops["agg_round"]),
        "density_ms_p50": len(ops["density"]),
        "route_ms_p50": len(ops["route"]),
    }
    timeline = {
        "reference": [probe.times, probe.durations],
        "import": import_span,
        "setups": setups,
        "repeats": [{"setup": r.setup, "days": r.days, "finish": r.finish} for r in repeats],
        "ops": ops,
    }
    (outdir / f"timeline-seed{seed}.json").write_text(json.dumps(timeline))
    at_reference, as_measured = summary(probe.scaled), summary(probe.measured)
    out = {name: (at_reference[name], as_measured[name], counts[name]) for name in counts}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss, rss, 1)
    return {name: out[name] for name, _unit in END_TO_END}


def measure_traced(workload, rec, outdir: Path, probe: SpeedProbe, trace_file: Path):
    """One untraced scenario, then TRACED_REPEATS traced ones.  A workload
    whose between-day operations are not part of its traced figures
    (``traced_ops`` false) skips them in all three."""
    import layer_trace

    gc.collect()
    untraced = run_repeat(workload, rec, outdir, between_days=workload.traced_ops)
    untraced.state = None
    repeats, layers, dumps = [untraced], [], []
    for _ in range(TRACED_REPEATS):
        gc.collect()
        tracer = layer_trace.Tracer()
        tracer.install()
        try:
            rep = run_repeat(workload, rec, outdir, between_days=workload.traced_ops, tracer=tracer)
        finally:
            tracer.uninstall()
        # per-layer times of a repeat are scaled by the speed over the repeat
        factor = probe.factor((rep.setup[0], rep.finish[1]))
        layers.append((tracer.metrics(workload.sim_counts(rep.state)), factor))
        dumps.append(tracer.dump())
        rep.state = None
        repeats.append(rep)
    check_digests(rec, repeats)
    for name, unit in layer_trace.PER_LAYER:
        if unit != "s" and name in layers[0][0]:
            values = [layer[name] for layer, _ in layers]
            rec.check(len(set(values)) == 1, f"{name} differs across traced repeats: {values}")
    trace_file.write_text(json.dumps({"repeats": dumps}))

    def overhead(duration) -> float:
        return statistics.mean(r.scenario(duration) for r in repeats[1:]) - untraced.scenario(duration)

    out = {}
    for name, unit in layer_trace.PER_LAYER:
        if name == "tracing_overhead_s":
            out[name] = (overhead(probe.scaled), overhead(probe.measured), len(repeats))
        elif unit == "s":
            out[name] = (
                statistics.mean(layer[name] / factor for layer, factor in layers),
                statistics.mean(layer[name] for layer, _ in layers),
                len(layers),
            )
        else:
            out[name] = (layers[0][0][name], layers[0][0][name], len(layers))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="time budget for the repeats of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "epitrace" / "__init__.py").is_file():
        print(f"error: no epitrace sources under {SRC}", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    for _ in range(NEAREST // 2):
        probe.sample()
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import epitrace

    import_span = (started, time.perf_counter())
    if Path(epitrace.__file__).resolve().parent != (SRC / "epitrace").resolve():
        print(f"error: imported epitrace from {epitrace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import protocol_ops
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    rec = protocol_ops.Recorder(mark=probe.sample)
    outdir = ROOT / ".bench_out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import layer_trace

        units = dict(layer_trace.PER_LAYER)
        results = measure_traced(workload, rec, outdir, probe, outdir / f"trace-seed{args.seed}.json")
    else:
        units = dict(END_TO_END)
        results = measure(workload, rec, outdir, probe, args.seconds, import_span, args.seed)

    print(
        f"reference loop: median {statistics.median(probe.durations) * 1000:.3f} ms over "
        f"{len(probe.durations)} samples (reference {REFERENCE_S * 1000:g} ms)"
    )
    for name, (value, as_measured, n) in results.items():
        extra = f"; measured {as_measured:.6g}" if units[name] in ("s", "ms") else ""
        print(f"{name} = {value:.6g} {units[name]} (n={n}{extra})")
    for failure in rec.failures:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed={args.seed}: {rec.attempted} checks, {rec.failed} failed")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _m, _n) in results.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
