"""Benchmark of the preordgrp engine: one command, three workloads.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 1 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for what each workload does and checks.

The command starts worker interpreters one after another: some only to
measure set-up, the others to run one round each.  A round is the whole
list of operations of the workload; each worker builds its inputs from the
seed, runs the round, checks every output and reports to this process.
Rounds go on until ``--seconds`` have passed and the workload's minimum
number of rounds is reached.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle_sweep", "fgab_analysis", "cli_session")
SETUP_RUNS = 5            # set-up samples per run; setup_s is their median
# The in-process workloads pool two rounds to average over more machine
# time: with one round the spread between runs reached 0.21 for the fgab
# p50, with two it was 0.08.  cli_session stays within 0.08 with one round.
MIN_ROUNDS = {"oracle_sweep": 2, "fgab_analysis": 2, "cli_session": 1}
# a round takes 15-30 s; two slow rounds still end within 180 s
WORKER_TIMEOUT_S = 80
RUN_DIR = ".bench_run"    # outputs and trace files, inside the checkout


def _percentile_with_tail(sorted_values, min_beyond=10):
    """(p, value): the highest whole percentile with at least
    ``min_beyond`` samples above it (nearest-rank), or None."""
    n = len(sorted_values)
    for p in range(99, 0, -1):
        idx = math.ceil(p / 100 * n) - 1
        if n - idx - 1 >= min_beyond:
            return p, sorted_values[idx]
    return None


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

def _make_workload(args, tr, root):
    import workloads
    if args.workload == "oracle_sweep":
        return workloads.OracleSweep(args.seed, tr)
    if args.workload == "fgab_analysis":
        return workloads.FgabAnalysis(args.seed, tr)
    shim = None
    if tr.enabled:
        from preordgrp.corpus import corpus_objects
        tr.call("corpus.build", corpus_objects)
        shim = os.path.join(HERE, "cli_shim.py")
    return workloads.CliSession(args.seed,
                                os.path.join(args.work_dir, f"cli-{os.getpid()}"),
                                os.path.join(root, "src"), shim)


def worker(args):
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    from tracing import Tracer, span_cost
    tr = Tracer(bool(args.trace))
    wl = _make_workload(args, tr, root)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    setup_spans = len(tr.spans)
    clock = time.perf_counter
    latencies, errors = [], []
    failed = exact = window = 0
    timed_s = 0.0
    for item in wl.items:
        t0 = clock()
        try:
            out = tr.call("op", wl.run, item)
        except Exception as exc:   # a failing operation is counted, not fatal
            timed_s += clock() - t0
            failed += 1
            errors.append(f"{item!r:.120}: {type(exc).__name__}: {exc}")
            continue
        dt = clock() - t0
        timed_s += dt
        op_failed, errs = wl.check(item, out)
        errors.extend(errs)
        if op_failed:
            failed += 1
            continue
        latencies.append(dt)
        e, w = wl.verdicts(out)
        exact += e
        window += w
    if args.workload == "cli_session":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors.extend(wl.finish())
    result = {
        "ready": ready, "attempted": len(wl.items), "failed": failed,
        "errors": errors, "latencies": latencies, "timed_s": timed_s,
        "peak_rss_mb": peak_kib / 1024, "exact_verdicts": exact,
    }
    if tr.enabled:
        summary = tr.summary(since=setup_spans)
        setup = tr.summary()
        layer = {"corpus.build_s": ("s", setup.get("corpus.build", (0.0, 0))[0]),
                 "pog.window_verdicts": ("count", window)}
        for name in LAYER_SELF:
            layer[f"{name}.self_s"] = ("s", summary.get(name, (0.0, 0))[0])
        for name in LAYER_CALLS:
            layer[f"{name}.calls"] = ("count", summary.get(name, (0.0, 0))[1])
        layer.update(wl.layer_metrics(tr))
        cost = span_cost()
        n_spans = len(tr.spans) - setup_spans
        layer["trace.spans"] = ("count", n_spans)
        layer["trace.overhead_pct"] = ("%", 100 * n_spans * cost / timed_s)
        layer["trace.timed_s"] = ("s", timed_s)
        result["layer"] = layer
        os.makedirs(os.path.join(root, RUN_DIR), exist_ok=True)
        tr.write(os.path.join(root, RUN_DIR,
                              f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


# span names whose self time and call counts are reported
LAYER_SELF = ("oracle.enumerate", "oracle.verify", "pog.limits",
              "pog.classify", "pog.morphism_class", "cones.units",
              "cones.contains", "intlinalg.snf", "torsion.sequence",
              "factor.E", "factor.M", "factor.Eprime", "factor.Mstar",
              "factor.e_conditions", "factor.ml", "factor.em",
              "descent.covering")
LAYER_CALLS = ("oracle.verify", "cones.contains", "intlinalg.snf")

# every per-layer metric a traced run reports, with its unit; a layer the
# workload does not touch reads 0
PER_LAYER = (
    [(f"{n}.self_s", "s") for n in LAYER_SELF]
    + [(f"{n}.calls", "count") for n in LAYER_CALLS]
    + [("oracle.enumerate.morphisms", "count"),
       ("torsion.sequence.cache_hits", "count"),
       ("torsion.sequence.cache_misses", "count"),
       ("pog.window_verdicts", "count"),
       ("corpus.build_s", "s"),
       ("cli.startup_s", "s"), ("cli.parse.self_s", "s"),
       ("cli.command.self_s", "s"), ("cli.report_bytes", "bytes"),
       ("trace.spans", "count"), ("trace.overhead_pct", "%"),
       ("trace.timed_s", "s")])


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

def _spawn_worker(args, setup_only):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", args.work_dir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker stopped after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def launcher(args):
    if not os.path.isfile(os.path.join("src", "preordgrp", "__init__.py")):
        print("error: run from the root of a preordgrp checkout "
              "(src/preordgrp not found)", file=sys.stderr)
        return 2
    args.work_dir = os.path.abspath(
        os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"))
    min_rounds = 1 if args.trace else MIN_ROUNDS[args.workload]
    rounds = []
    try:
        setups = [_spawn_worker(args, True)[0]
                  for _ in range(SETUP_RUNS - min_rounds)]
        started = time.monotonic()
        while (len(rounds) < min_rounds
               or (not args.trace and time.monotonic() - started < args.seconds)):
            setup, res = _spawn_worker(args, False)
            setups.append(setup)
            rounds.append(res)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    errors = [e for r in rounds for e in r["errors"]]
    if len({r["exact_verdicts"] for r in rounds}) != 1:
        errors.append("exact verdict counts differ between rounds")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    out = {"correct": not errors, "attempted": attempted, "failed": failed}
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER:
            _, value = rounds[0]["layer"].get(name, (unit, 0))
            metrics[name] = {"value": value, "unit": unit}
    else:
        lat = sorted(x for r in rounds for x in r["latencies"])
        tail = _percentile_with_tail(lat)
        if tail is None:
            print("error: too few completed operations for a tail",
                  file=sys.stderr)
            return 1
        print(f"{args.workload}: {len(lat)} completed operations, "
              f"tail_ms is p{tail[0]}", file=sys.stderr)
        timed_s = sum(r["timed_s"] for r in rounds)
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / timed_s, "unit": "1/s"},
            "p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "tail_ms": {"value": 1000 * tail[1], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds),
                            "unit": "MiB"},
            "exact_verdicts": {"value": rounds[0]["exact_verdicts"],
                               "unit": "count"},
        }
    out["metrics"] = metrics
    print(json.dumps(out))
    return 0


def main():
    ap = argparse.ArgumentParser(description="preordgrp benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run whole rounds of operations until this much "
                         "time has passed (at least the workload's minimum rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = ap.parse_args()
    return worker(args) if args.worker else launcher(args)


if __name__ == "__main__":
    sys.exit(main())
