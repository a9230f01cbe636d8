"""Run one workload of the gwitt benchmark and print its metrics.

    python3 perfbench/run.py --workload ladder_cold --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ladder_cold,
witt_warm, verify_mix.  Each is one caller in one closed loop: the fixed,
seeded work of a round is repeated until the next round would end after
--seconds.  Every public call into gwitt is one operation; its output is
checked outside the timed call, and a failed check or a raise counts
against the operation.

Times are in reference seconds (harness.SpeedGauge): measured seconds
scaled by how fast the host ran a fixed pure-Python kernel around them, so
that a spell in which the shared host runs everything slower is not read
as a slower program.  An operation's latency is its trimmed mean over the
run's rounds.  With --trace 0 the last line carries the end-to-end metrics:
  setup_s      set-up time, median of several set-ups (see each workload)
  wall_s       the round's fixed work: median over the rounds of the sum
               of its operations' times
  op_p50_ms    median latency over the round's operations
  op_tail_ms   highest percentile that leaves >= 10 operations beyond it
  peak_rss_mb  peak resident memory (ladder_cold: max over the rungs)
Both percentiles are Harrell-Davis estimates, which do not jump where the
sorted latencies are far apart.
fail_frac (failed / attempted operations) is printed above it.  With
--trace 1 rounds alternate untraced and traced; the last line carries the
per-layer metrics of BENCHMARK.json from the traced rounds, and
trace.overhead_pct compares traced with untraced rounds outside the Tambara
checker, which the two kinds of round call differently.

The line before the last is the run context: machine, seeds, sample counts,
the tail percentile, the host-speed scale and the unscaled wall and set-up
times, the exact work counters and the excluded items.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import ladder  # noqa: E402
import verify_mix  # noqa: E402
import witt_warm  # noqa: E402

WORKLOADS = {"ladder_cold": ladder, "witt_warm": witt_warm, "verify_mix": verify_mix}

# Fresh interpreters whose set-up is timed, for the in-process workloads.
SETUP_REPEATS = 3

EXCLUDED = [
    {"item": "C2^6 on the ladder", "cost": "table of marks 91 s (measured)"},
    {"item": "burnside_mul on C2^5",
     "cost": "about 34 s per rung (estimated from 200 sampled products)"},
    {"item": "witt add/mul on S4",
     "cost": "sum_polys ran for more than 525 s without finishing (measured)"},
]


def _setup_in_children(workload: str, seed: int) -> list[dict]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(harness.HERE / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=harness.ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def _run_rounds(module, state, seconds: float, trace: bool, pins) -> list[dict]:
    """Closed loop: start another round only while it is expected to end
    within `seconds`.  A traced run alternates untraced and traced rounds
    and has at least one of each."""
    rounds = []
    began = time.monotonic()
    while True:
        rec = harness.Recorder(trace=trace and len(rounds) % 2 == 1, round_id=len(rounds))
        gc.collect()
        harness.GAUGE.sample()
        spent = harness.GAUGE.spent
        start = time.perf_counter()
        extras = module.run_round(state, rec) or {}
        clock = time.perf_counter() - start - (harness.GAUGE.spent - spent)
        rec.close()
        rec.check_pins(*pins)
        rounds.append({"rec": rec, "clock": clock, "clock_scale": rec.scale, **extras})
        elapsed = time.monotonic() - began
        typical = statistics.median([r["clock"] for r in rounds])
        if len(rounds) >= (2 if trace else 1) and elapsed + typical > seconds:
            return rounds


def _outside_tambara(r: dict) -> float:
    return (r["clock"] * r["clock_scale"]
            - sum(op[1] for op in r["rec"].ops if op[0].startswith("tambara.")))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    module = WORKLOADS[args.workload]

    harness.load_gwitt()
    if args.setup_child:
        harness.GAUGE.sample(harness.GAUGE_WINDOW)
        module.setup(args.seed, harness.Recorder())
        measured = time.perf_counter() - _STARTED - harness.GAUGE.spent
        harness.GAUGE.sample(harness.GAUGE_WINDOW)
        print(json.dumps({"setup_s": measured * harness.GAUGE.scale(),
                          "measured_s": measured}))
        return 0

    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    pins = harness.load_pins(args.workload, args.seed)
    setups = None
    if args.workload != "ladder_cold":
        setups = _setup_in_children(args.workload, args.seed)
    # The in-process set-up is not timed as setup_s, but its calls are
    # operations (checked, counted) and, traced, spans of their layers.
    setup_rec = harness.Recorder(trace=bool(args.trace))
    state = module.setup(args.seed, setup_rec)
    setup_rec.close()
    setup_rec.check_pins(*pins)
    rounds = _run_rounds(module, state, args.seconds, bool(args.trace), pins)
    untraced = [r for r in rounds if not r["rec"].trace]
    traced = [r for r in rounds if r["rec"].trace]

    recs = [setup_rec] + [r["rec"] for r in rounds]
    errors = [e for rec in recs for e in rec.harness_errors]
    counters = {"setup": setup_rec.counters()}
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            counters[label] = group[0]["rec"].counters()
            if any(r["rec"].counters() != counters[label] for r in group):
                errors.append(f"work counters differ between {label} rounds")
    attempted = sum(len(rec.ops) for rec in recs)
    failed = sum(rec.failed() for rec in recs)

    if setups is None:
        setups = [r["setup"] for r in untraced]
    if "gauge" in untraced[0]:
        # ladder_cold: each rung is a fresh interpreter too short to track
        # the host by itself, so one scale from every rung's gauge samples
        # serves the whole run.
        scale = harness.scale_of([t for r in rounds for t in r["gauge"]])
        for r in rounds:
            r["clock_scale"] = scale
            for op in r["rec"].ops:
                op[1] = op[3] * scale
        for s in setups:
            s["setup_s"] = s["measured_s"] * scale
    else:
        scale = statistics.median(r["rec"].scale for r in untraced)
    setup_times = [s["setup_s"] for s in setups]
    # Every round makes the same calls in the same order.  An operation's
    # latency is its trimmed mean time over the rounds, in reference
    # seconds: a call shorter than the host's switches between speeds runs
    # at one speed or the other, and its mean, like the gauge's, follows
    # the share of slow time.
    latency = [harness.trimmed_mean(times)
               for times in zip(*[[op[1] for op in r["rec"].ops] for r in untraced])]
    tail_p = harness.tail_percentile(len(latency))
    if "rss_mb" in untraced[0]:
        peak_rss = statistics.median([r["rss_mb"] for r in untraced])
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["rec"].op_seconds() for r in untraced),
        "op_p50_ms": harness.harrell_davis(latency, 0.5) * 1000.0,
        "op_tail_ms": harness.harrell_davis(latency, tail_p / 100.0) * 1000.0,
        "peak_rss_mb": peak_rss,
    }

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": harness.HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setup_times),
        "setup_measured_s": statistics.median(s["measured_s"] for s in setups),
        "speed_scale": scale,
        "measured_wall_s": statistics.median(r["rec"].measured_seconds() for r in untraced),
        "round_op_seconds": [r["rec"].op_seconds() for r in untraced],
        "ops_per_round": len(latency),
        "timings_per_op": len(untraced),
        "op_tail_percentile": tail_p,
        "op_tail_ops_beyond": sum(1 for s in latency if s > end_to_end["op_tail_ms"] / 1000.0),
        "fail_frac": failed / attempted,
        "seeded_outputs_pinned": pins[1] is not None,
        "counters": counters,
        "counters_digest": harness.digest(counters),
        "excluded": EXCLUDED,
        "problems": [p for rec in recs for p in rec.problems][:20],
        "harness_errors": errors[:20],
    }

    if args.trace:
        setup_spans = setup_rec.span_ms()
        spans = [{**r["rec"].span_ms(), **setup_spans} for r in traced]
        work = {**counters["setup"], **counters["traced"]}
        overhead = (statistics.median([_outside_tambara(r) for r in traced])
                    / statistics.median([_outside_tambara(r) for r in untraced]) - 1.0) * 100.0
        context["trace_overhead_scope"] = "round time outside tambara.* calls"
        metrics = {}
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_pct":
                value = overhead
            elif name.endswith("_ms"):
                value = statistics.median([s.get(name[:-3], 0.0) for s in spans])
            else:
                value = work.get(name, 0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        print(f"fail_frac = {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")

    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
