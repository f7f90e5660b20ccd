"""Benchmark of the bottclass package.

    python3 benchmarks/run.py --workload {classify,census,rigidity}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src.  The
seed makes the inputs; set-up is repeated and its median reported; then
whole rounds of the workload's operations run until S seconds have passed,
and every output is checked against the reference code in this directory.
Times are scaled to a nominal machine speed by `speed.SpeedProbe`.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the metrics
are per-layer call counts and self times (see README.md); otherwise they
are the end-to-end metrics.  A full report goes to benchmarks/out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402  (this directory's modules)
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("gf2", "bottmatrix", "cohomology", "spin", "bieberbach", "rigidity", "cli")
MEMO = (("bottmatrix", "diffeo_classes"), ("rigidity", "ring_invariants"))
# Set-up runs at least twice, and three times or for SETUP_MIN_S when it
# is cheap, but stops after SETUP_CAP_S; its median is reported.
SETUP_MIN_S = 2.0
SETUP_CAP_S = 10.0


class PackageMissing(Exception):
    pass


def import_package() -> dict:
    """Import bottclass afresh from ./src, so module state and memo caches
    start cold, as in a new process."""
    for name in [n for n in sys.modules if n == "bottclass" or n.startswith("bottclass.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        pkg = {name: importlib.import_module(f"bottclass.{name}") for name in MODULES}
    except ImportError as exc:
        raise PackageMissing(f"cannot import bottclass from {SRC}: {exc}") from exc
    if not os.path.abspath(pkg["cli"].__file__).startswith(os.path.join(SRC, "bottclass")):
        raise PackageMissing(f"bottclass imported from {pkg['cli'].__file__}, not from {SRC}")
    # The memo caches, kept before tracing replaces the names.
    pkg["memo"] = {name: getattr(pkg[module], name, None) for module, name in MEMO}
    return pkg


def clear_memo(pkg: dict) -> None:
    for fn in pkg["memo"].values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def set_up(name: str, seed: int, tracer) -> tuple[dict, list, tuple[float, float]]:
    start = time.perf_counter()
    pkg = import_package()
    if tracer is not None:
        tracer.install()
    ops = workloads.WORKLOADS[name](pkg).setup(random.Random(seed))
    clear_memo(pkg)
    return pkg, ops, (start, time.perf_counter())


def more_setups(spans: list[tuple[float, float]]) -> bool:
    spent = sum(end - start for start, end in spans)
    if len(spans) < 2:
        return True
    return spent < SETUP_CAP_S and (len(spans) < 3 or spent < SETUP_MIN_S)


def run_round(pkg: dict, ops: list) -> tuple[list[tuple[float, float]], list[tuple[str, str]]]:
    """Run and check every operation once; the (start, end) of each run."""
    clear_memo(pkg)
    clock = time.perf_counter
    spans, failures = [], []
    for op in ops:
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            spans.append((start, clock()))
            failures.append((op.kind, f"raised {exc!r}"))
            continue
        spans.append((start, clock()))
        try:
            message = op.check(out)
        except Exception as exc:
            message = f"check raised {exc!r}"
        if message is not None:
            failures.append((op.kind, message))
    return spans, failures


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def kind_summary(times: list[float], rounds: int) -> dict:
    """Operations, seconds per round and latency quantiles of one kind."""
    out = {"ops_per_round": len(times) // rounds, "s_per_round": sum(times) / rounds}
    if len(times) >= 2:
        out["p50_ms"] = percentile(times, 0.50) * 1e3
        out["p90_ms"] = percentile(times, 0.90) * 1e3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = args.trace == 1
    tracer = tracing.Tracer() if traced else None
    probe = speed.SpeedProbe()

    probe.start()
    try:
        setups: list[tuple[float, float]] = []
        while not setups or (not traced and more_setups(setups)):
            pkg, ops, span = set_up(args.workload, args.seed, tracer)
            setups.append(span)
        if traced:
            after_setup = tracer.snapshot()

        rounds, failures = [], []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < args.seconds:
            spans, failed = run_round(pkg, ops)
            rounds.append(spans)
            failures.extend(failed)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.stop()
        if traced:
            tracer.uninstall()

    setup_s = [probe.scaled(*span) for span in setups]
    op_s = [[probe.scaled(*span) for span in spans] for spans in rounds]
    round_s = [sum(times) for times in op_s]
    latencies = [t for times in op_s for t in times]
    attempted = len(rounds) * len(ops)
    unexpected = [f for f in failures if not f[1].startswith(workloads.KNOWN_FAULT)]

    if traced:
        # one set-up plus the mean of the rounds, which all do the same work
        total = tracer.snapshot()
        metrics = {}
        for name, unit in tracing.metric_names():
            value = after_setup[name] + (total[name] - after_setup[name]) / len(rounds)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "op_p50_ms": {"value": percentile(latencies, 0.50) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": percentile(latencies, 0.90) * 1e3, "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    kinds = sorted({op.kind for op in ops})
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "ops_per_round": len(ops),
        "round_s": round_s,
        "wall_round_s": [sum(end - start for start, end in spans) for spans in rounds],
        "setup_s": setup_s,
        "wall_setup_s": [end - start for start, end in setups],
        "kinds": {k: kind_summary([t for times in op_s for op, t in zip(ops, times)
                                   if op.kind == k], len(rounds)) for k in kinds},
        "probe_s": {"nominal": speed.NOMINAL_S, "median": statistics.median(probe.seconds),
                    "samples": len(probe.seconds)},
        "failures": sorted(set(failures)), "unexpected_failures": sorted(set(unexpected)),
        "absent": tracer.absent if traced else [],
        "python": sys.version.split()[0], "machine": platform.machine(),
        "cpus": os.cpu_count(), "result": result,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"{args.workload}: seed {args.seed}, {len(rounds)} round(s) of {len(ops)} operations, "
          f"median round {statistics.median(round_s):.4f} s at nominal speed "
          f"({statistics.median(report['wall_round_s']):.4f} s wall), "
          f"tracing {'on' if traced else 'off'}")
    for kind, message in sorted(set(failures))[:5]:
        print(f"failed {kind}: {message}")
    if traced and tracer.absent:
        print(f"absent: {', '.join(tracer.absent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
