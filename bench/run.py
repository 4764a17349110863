"""superbethe benchmark: one workload per process, tracing off or on.

    python3 bench/run.py --workload verify-full --seed 1 --seconds 15 --trace 0

Run from anywhere: the program is imported from ``src/`` next to this
directory, so a plain checkout needs no install. The workload is prepared
once (``setup_s`` is the median of several preparations, each in a fresh
interpreter), then run in whole rounds until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics, measured with no wrapper in
place. ``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced rounds, plus ``trace.overhead_s``: the median
traced round minus the median untraced round. Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment, the
per-round figures and (traced) every span, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from speedclock import KERNEL_REF_S, SpeedClock
from workloads import CONFIG, WORKLOADS, Recorder

PERF = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

SUITES = tuple(json.loads(CONFIG.read_text())["suites"])  # the suites verify-full runs


def end_to_end_units():
    return {"setup_s": "s", "wall_s": "s", "check_p50_ms": "ms", "check_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {f"cli.suite.{s}_s": "s" for s in SUITES}
    units.update({k: "count" for k in tracer.COUNTERS})
    units.update({k: "s" for k in tracer.TIME_GROUPS})
    units.update({f"{layer}.self_s": "s" for layer in tracer.LAYERS})
    units["monodromy.cache_hit_ratio"] = "ratio"
    units["monodromy.entries_cache_hit_ratio"] = "ratio"
    units["composite.partial_cache_hit_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def declared_metrics(kind, units):
    """The metric names BENCHMARK.json declares for this mode, checked
    against the units the benchmark measures them in."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)[kind]
    for m in declared:
        if units.get(m["name"]) != m["unit"]:
            raise SystemExit(f"error: BENCHMARK.json metric {m['name']} ({m['unit']}) is not measured here")
    return [m["name"] for m in declared]


def environment():
    from superbethe import __version__, rational

    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": rational.BACKEND,
        "superbethe": __version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": uname.machine,
        "system": f"{uname.system} {uname.release}",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="prepare the workload, print its set-up time, exit")
    return p.parse_args(argv)


def prepare(name, seed, clock):
    workload = WORKLOADS[name]()
    t0, r0 = clock.now(), clock.raw()
    workload.prepare(seed)
    return workload, clock.now() - t0, clock.raw() - r0


def setup_times(args):
    """Set up the workload in fresh interpreters, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_rounds(workload, seconds, trace, clock):
    """Whole rounds until `seconds` have passed; with trace, rounds alternate
    untraced, traced, untraced, ... and at least one of each is run."""
    spans = tracer.Tracer(clock.now) if trace else None
    rounds = []
    start = PERF()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rec = Recorder(clock, spans if traced else None)
        if traced:
            spans.new_round()
            spans.install()
        try:
            t0, r0 = clock.now(), clock.raw()
            workload.run_round(rec)
            wall, wall_raw = clock.now() - t0, clock.raw() - r0
        finally:
            if traced:
                spans.uninstall()
        checks = len(rec.check_s)
        workload.verify(rec)
        rounds.append({
            "traced": traced,
            "wall_s": wall,
            "wall_raw_s": wall_raw,
            "checks": checks,
            "check_s": rec.check_s,
            "check_raw_s": rec.check_raw_s,
            "suite_s": rec.suite_s,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "wrong": rec.wrong,
            "trace": spans.round_summary() if traced else None,
        })
        if PERF() - start >= seconds and (not trace or len(rounds) >= 2):
            return rounds, spans


def end_to_end(rounds, setups, raw=False):
    """The end-to-end metrics in reference-speed time, or with raw=True in
    plain elapsed time (reported for information only)."""
    suffix = "_raw_s" if raw else "_s"
    check_s = [t for r in rounds for t in r["check" + suffix]]
    return {
        "setup_s": statistics.median(s["setup" + suffix] for s in setups),
        "wall_s": statistics.median(r["wall" + suffix] for r in rounds),
        "check_p50_ms": 1000 * statistics.median(check_s),
        "check_p90_ms": 1000 * statistics.quantiles(check_s, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rounds):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    summaries = [r["trace"] for r in traced]
    counts = summaries[0]["counts"]
    if any(s["counts"] != counts for s in summaries[1:]):
        print("warning: traced rounds disagree on counts", file=sys.stderr)
    out = {}
    for suite in SUITES:
        out[f"cli.suite.{suite}_s"] = statistics.median(r["suite_s"].get(suite, 0.0) for r in plain)
    out.update(counts)
    for key in summaries[0]["group_s"]:
        out[key] = statistics.median(s["group_s"][key] for s in summaries)
    for layer in summaries[0]["layer_self_s"]:
        out[f"{layer}.self_s"] = statistics.median(s["layer_self_s"][layer] for s in summaries)
    out["monodromy.cache_hit_ratio"] = _ratio(counts["monodromy.cache_hits"], counts["monodromy.cache_calls"])
    out["monodromy.entries_cache_hit_ratio"] = _ratio(
        counts["monodromy.entries_cache_hits"], counts["monodromy.entries_cache_calls"]
    )
    out["composite.partial_cache_hit_ratio"] = _ratio(
        counts["composite.partial_cache_hits"], counts["composite.partial_cache_calls"]
    )
    out["trace.spans"] = summaries[0]["spans"]
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    return out


def _ratio(hits, calls):
    return hits / calls if calls else 0.0


def main(argv=None):
    if not (SRC / "superbethe" / "__init__.py").is_file():
        print(f"error: no superbethe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    units = per_layer_units() if args.trace else end_to_end_units()
    reported = declared_metrics("per_layer" if args.trace else "end_to_end", units)

    clock = SpeedClock()
    clock.start()
    try:
        workload, setup_s, setup_raw_s = prepare(args.workload, args.seed, clock)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        if args.trace:
            setups = []
        else:
            clock.stop()  # no SIGALRM while waiting for the children
            setups = setup_times(args)
            clock.start()
        rounds, spans = run_rounds(workload, args.seconds, bool(args.trace), clock)
    finally:
        clock.stop()
    values = per_layer(rounds) if args.trace else end_to_end(rounds, setups)
    raw_values = {} if args.trace else end_to_end(rounds, setups, raw=True)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wrong = [name for r in rounds for name in r["wrong"]]
    env = environment()

    per_round = rounds[0]["checks"]
    samples = sum(r["checks"] for r in rounds)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(rounds)} rounds, "
          f"{per_round} timed checks per round, {samples} check samples")
    if setups:
        print("set-up samples (s): " + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
    print(f"machine speed: kernel median {statistics.median(clock.samples) * 1000:.3f} ms over "
          f"{len(clock.samples)} samples (reference {KERNEL_REF_S * 1000:.3f} ms)")
    for name in sorted(values):
        raw = f"  (elapsed {raw_values[name]:.6f})" if name in raw_values and name != "peak_rss_mb" else ""
        mark = "" if name in reported else "  [not in BENCHMARK.json]"
        print(f"  {name:40s} {values[name]:>16.6f} {units[name]}{raw}{mark}")
    print(f"attempted {attempted}, failed {failed}, wrong {len(wrong)}")
    for name in sorted(set(wrong))[:20]:
        print(f"  wrong: {name}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    OUT_DIR.mkdir(exist_ok=True)
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                environment=env, all_metrics=values, elapsed_metrics=raw_values, setup_samples=setups,
                kernel_samples_s=clock.samples,
                rounds=[{k: v for k, v in r.items() if k not in ("check_s", "check_raw_s")} for r in rounds])
    if spans is not None:
        full["spans"] = spans.spans_json()
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(full, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
