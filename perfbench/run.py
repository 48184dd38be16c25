#!/usr/bin/env python3
"""Benchmark the modraft kernel on one workload, or on all of them.

    python3 perfbench/run.py --workload edit_sheet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a modraft checkout; it imports the package from
``src/`` and the property generator from ``tests/propgen.py``.

``--trace 0`` times a closed loop of operations for ``--seconds`` seconds
(one client, one thread) after setting the inputs up several times, and
reports the end-to-end metrics. ``--trace 1`` runs the workload's fixed
number of operations twice, plainly and then under the outside-in tracer,
and reports the per-layer metrics; the trace of the first traced operation
goes to ``.perfbench_out/``. Either way every output is checked, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("edit_sheet", "verify_signed", "view_dense", "spec_scan")
# setup_s is the median of at least SETUPS set-ups and of at least
# SETUP_SECONDS of them, so a 0.1-second set-up is repeated about ten times.
SETUPS = 3
SETUP_SECONDS = 1.0
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _loop(w, stop, tracer=None) -> tuple[list[float], list[float], list[str]]:
    """Closed loop over operations 0, 1, ... until ``stop(done, timed_s)``.
    Returns each operation's wall latency, the same scaled to the
    reference host speed, and one message per failed operation. The
    reference slices, checks and trace folding run outside the timed
    region."""
    raw: list[float] = []
    slices = [pace.reference_ms()]
    failures: list[str] = []
    timed = 0.0
    i = 0
    while not stop(i, timed):
        t0 = time.perf_counter()
        try:
            out = w.op(i)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"op {i} raised {exc!r}"
        dt = time.perf_counter() - t0
        slices.append(pace.reference_ms())
        if tracer is not None:
            tracer.fold()
        if error is None:
            error = w.check(i, out)
        if error is not None:
            failures.append(error)
        raw.append(dt)
        timed += dt
        i += 1
    return raw, pace.scaled_series(raw, slices), failures


def _env_line(seed: int) -> str:
    return (f"env seed={seed} python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} "
            f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}")


def _fingerprint_line(kind: str, prints: dict[str, str]) -> str:
    return kind + " " + " ".join(f"{k}_sha256={v}" for k, v in sorted(prints.items()))


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    import golden
    import workloads

    cls = workloads.WORKLOADS[name]
    errors: list[str] = []
    print(_env_line(seed))

    setup_times, setup_walls, prints = [], [], []
    w = None
    while not setup_times or not trace and (
            len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS):
        w = None
        gc.collect()
        before = pace.reference_ms()
        t0 = time.perf_counter()
        w = cls(seed, workdir)
        dt = time.perf_counter() - t0
        setup_walls.append(dt)
        setup_times.extend(pace.scaled_series([dt], [before, pace.reference_ms()]))
        prints.append(w.fingerprints())
    if any(p != prints[0] for p in prints):
        errors.append("set-up gave different inputs for the same seed")
    print(_fingerprint_line("inputs", prints[0]))

    if trace:
        result = _traced(w, name, seed, errors)
    else:
        raw, scaled, failures = _loop(w, lambda done, timed: timed >= seconds)
        errors.extend(w.finish())
        result = {"raw": raw, "scaled": scaled, "failures": failures}

    outputs = w.golden()
    print(_fingerprint_line("outputs", outputs))
    status, golden_errors = golden.compare(name, seed, prints[0], outputs)
    print(f"golden {status}")
    errors.extend(golden_errors)

    failures = result["failures"]
    attempted = len(result["raw"])
    failed = attempted if errors else len(failures)
    for message in (failures + errors)[:10]:
        print(f"perfbench: {name}: {message}", file=sys.stderr)
    if trace:
        metrics = result["metrics"]
    else:
        ms = [x * 1000.0 for x in result["scaled"]]
        raw_ms = [x * 1000.0 for x in result["raw"]]
        p90 = _p90(ms)
        values = {"setup_s": statistics.median(setup_times),
                  "op_p50_ms": statistics.median(ms), "op_p90_ms": p90,
                  "ops_per_s": attempted / sum(result["scaled"]),
                  "peak_rss_mb": _peak_rss_mb(),
                  "ok_ratio": (attempted - failed) / attempted}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        beyond = sum(1 for x in ms if x > p90)
        print(f"samples {attempted} ops, {beyond} beyond p90; "
              f"failed_ratio={failed / attempted} ratio")
        print(f"wall (unscaled) setup_s={statistics.median(setup_walls)} "
              f"op_p50_ms={statistics.median(raw_ms)} "
              f"op_p90_ms={_p90(raw_ms)} ops_per_s={attempted / sum(result['raw'])}")
    for k, m in metrics.items():
        print(f"metric {name} {k}={m['value']} {m['unit']}")
    return {"correct": not errors and not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _traced(w, name: str, seed: int, errors: list[str]) -> dict:
    import layers
    from tracer import Tracer

    n = w.trace_ops
    _, plain, failures = _loop(w, lambda done, timed: done >= n)
    errors.extend(w.finish())
    w.reset()
    gc.collect()
    tracer = Tracer("modraft", layers.HOOKS)
    with tracer:
        _, traced, traced_failures = _loop(w, lambda done, timed: done >= n, tracer)
    errors.extend(w.finish())

    totals = tracer.totals()
    for key in w.expected:
        if key not in totals:
            print(f"trace: expected binding {key} is absent", file=sys.stderr)
        elif totals[key][0] == 0:
            raise SystemExit(f"trace: expected binding {key} recorded no calls "
                             f"on {name}; the tracer missed it")
    metrics, absent = layers.layer_metrics(layers.Totals(totals, tracer.counts), n)
    if absent:
        print("trace: absent (function gone, reads 0): " + " ".join(absent))
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(plain), "unit": "ratio"}

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{seed}-trace.json").write_text(json.dumps({
        "workload": name, "seed": seed, "ops": n,
        "bindings": {k: {"calls": c, "incl_ns": i, "self_ns": s}
                     for k, (c, i, s) in sorted(totals.items()) if c},
        "first_op_spans": [{"key": k, "parent": p, "start_ns": t, "dur_ns": d}
                           for k, p, t, d in tracer.sample or []],
    }, indent=0))
    return {"raw": plain + traced, "failures": failures + traced_failures,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<34}" + "".join(f"{n:>16}" for n in results))
    for metric in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':<34}"
              + "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()))
    if not args.trace:
        print(f"{'failed_ratio [ratio]':<34}"
              + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    if not ((ROOT / "src" / "modraft" / "__init__.py").is_file()
            and (ROOT / "tests" / "propgen.py").is_file()):
        print(f"perfbench: {ROOT} has no src/modraft or tests/propgen.py; "
              "run it from a modraft checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
