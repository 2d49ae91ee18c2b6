"""normsys benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload ns-iso|regions|cli-mixed \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

A run builds its ops from the committed corpus and ``--seed`` (set-up, done
SETUP_REPEATS times and reported as the median), then runs ops back to
back, each started only after the previous one returned, until
``--seconds`` have passed.  The host-speed reference of ``hostspeed.py``
is timed before the first set-up and op and after each, and every timed
metric is the wall time divided by the host factor around it.  Every op is checked against the golden answers;
a wrong answer, exit code or exception counts as failed.  With ``--trace
0`` the last stdout line carries the end-to-end metrics; with ``--trace 1``
the library is wrapped by ``tracer.py`` during the timed phase and the
line carries the per-layer metrics instead.  ``--workload all`` runs every
workload untraced and traced and prints both tables and the tracing
overhead.  See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ns-iso", "regions", "cli-mixed")
SETUP_REPEATS = 9
# The tail percentile of each workload: the highest of p75/p90/p95/p99
# that keeps >= 10 samples beyond it even in a run on a busy machine
# (~0.6x the usual op count).  A fixed percentile stays inside one op
# kind's latency cluster; the 11th-largest latency, tried first, jumped
# between kinds as machine noise changed the op count.
TAIL_PERCENTILE = {"ns-iso": 75, "regions": 75, "cli-mixed": 90}
STARTUP_REPEATS = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit): "calls"/"busy_s"/"self_s" come from the tracer's
# per-function aggregates; the rest are computed in layer_metrics.
PER_LAYER = (
    ("run.ops", "count"),
    ("run.ops_per_s_traced", "1/s"),
    ("run.op_busy_s", "s"),
    ("linalg.det.calls", "count"),
    ("linalg.det.busy_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.busy_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.busy_s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.quadext_share", "ratio"),
    ("sphere.project_arrangement.calls", "count"),
    ("sphere.project_arrangement.self_s", "s"),
    ("sphere.general_position.calls", "count"),
    ("sphere.general_position.busy_s", "s"),
    ("cycles.all_cycle_invariants.busy_s", "s"),
    ("cycles.all_cycle_invariants.self_s", "s"),
    ("cycles.line_cycle.calls", "count"),
    ("cycles.line_cycle.busy_s", "s"),
    ("normal_systems.find_isomorphisms.busy_s", "s"),
    ("normal_systems.find_isomorphisms.self_s", "s"),
    ("normal_systems.is_valid.calls", "count"),
    ("normal_systems.is_valid.busy_s", "s"),
    ("normal_systems.witnesses", "count"),
    ("fm.feasible.calls", "count"),
    ("fm.feasible.busy_s", "s"),
    ("fm.feasible.true_share", "ratio"),
    ("fm.feasible.constraints_max", "count"),
    ("arrangements.region_counts.self_s", "s"),
    ("arrangements.cone_facets.busy_s", "s"),
    ("arrangements.cone_facets.self_s", "s"),
    ("arrangements.is_valid.calls", "count"),
    ("arrangements.is_valid.busy_s", "s"),
    ("arrangements.concurrency_sign_map.busy_s", "s"),
    ("arrangements.induced_sign_map.calls", "count"),
    ("arrangements.induced_sign_map.busy_s", "s"),
    ("arrangements.arrangements_isomorphic.self_s", "s"),
    ("field.parse_value.calls", "count"),
    ("field.parse_value.busy_s", "s"),
    ("symbols.compatible_symbols.busy_s", "s"),
    ("fixtures.verify_all.busy_s", "s"),
    ("cli.startup_ms", "ms"),
    ("cli.main.busy_s", "s"),
    ("cli.process_overhead_ms", "ms"),
)

LINALG = ("linalg.det", "linalg.rank", "linalg.solve", "linalg.kernel_basis")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def startup_ms() -> float:
    """Median wall time of a bare ``python -c "import normsys.cli"``."""
    walls = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import normsys.cli"], cwd=ROOT,
                       env=child_env(), capture_output=True, timeout=60, check=True)
        walls.append(perf_counter() - t0)
    return statistics.median(walls) * 1000


def env_record(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "normsys").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def build(workload: str, seed: int, trace_dir):
    """One set-up: corpus load, seeded inputs, object construction."""
    import workloads

    if workload == "ns-iso":
        stream, warm = workloads.ns_iso(seed)
        return stream, warm, None
    if workload == "regions":
        stream, warm = workloads.regions(seed)
        return stream, warm, None
    runner = workloads.CliRunner(trace_dir)
    stream, warm = workloads.cli_mixed(seed, runner)
    return stream, warm, runner


def tail(latencies: list, percentile: int) -> tuple:
    """Latency at the percentile, and the number of samples beyond it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for lat in latencies if lat > value)


def layer_metrics(agg: dict, ops: list, op_seconds: float) -> dict:
    calls, busy, self_s, counters = agg["calls"], agg["busy"], agg["self"], agg["counters"]
    out = {}
    for name, _ in PER_LAYER:
        func, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(func, 0)
        elif stat == "busy_s":
            out[name] = busy.get(func, 0.0)
        elif stat == "self_s":
            out[name] = self_s.get(func, 0.0)
    fm_calls = calls.get("fm.feasible", 0)
    out["fm.feasible.true_share"] = (
        counters.get("fm.feasible.true", 0) / fm_calls if fm_calls else 0.0)
    out["fm.feasible.constraints_max"] = counters.get("fm.feasible.constraints_max", 0)
    out["normal_systems.witnesses"] = counters.get("normal_systems.witnesses", 0)
    out["run.ops"] = len(ops)
    out["run.ops_per_s_traced"] = len(ops) / op_seconds
    out["run.op_busy_s"] = sum(lat for lat, _ in ops)
    linalg_total = sum(busy.get(f, 0.0) for f in LINALG)
    out["linalg.quadext_share"] = (
        agg.get("linalg_quadext_busy", 0.0) / linalg_total if linalg_total else 0.0)
    out["cli.startup_ms"] = startup_ms()
    overheads = agg.get("process_overhead_s", [])
    out["cli.process_overhead_ms"] = statistics.median(overheads) * 1000 if overheads else 0.0
    return {name: out[name] for name, _ in PER_LAYER}


def collect_children(runner) -> tuple:
    """Merge the per-process trace files of a traced cli-mixed run."""
    import tracer

    agg = tracer.empty_aggregates()
    agg["linalg_quadext_busy"] = 0.0
    agg["process_overhead_s"] = []
    processes = []
    for wall, path, quad in runner.records:
        if not path.exists():  # the child died before writing its trace
            continue
        with gzip.open(path, "rt") as fh:
            part = json.load(fh)
        os.unlink(path)
        tracer.merge(agg, part["aggregates"])
        busy = part["aggregates"]["busy"]
        if quad:
            agg["linalg_quadext_busy"] += sum(busy.get(f, 0.0) for f in LINALG)
        agg["process_overhead_s"].append(wall - busy.get("cli.main", 0.0))
        processes.append(part)
    return agg, processes


def pin_one_cpu():
    """Keep this process and its children on one CPU.  The host's CPUs are
    contended independently of each other (the reference loop, timed on
    each in turn, read 12 ms on one and 18 ms on the other), so the
    host-speed samples only describe an op that runs on the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    return None


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    module = "normsys.cli" if args.workload == "cli-mixed" else "normsys"
    cpu = pin_one_cpu()
    import hostspeed
    import tracer

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_dir = None
    if args.trace and args.workload == "cli-mixed":
        trace_dir = OUT / (stem + "-processes")
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
    env = env_record(args.workload, args.seed)
    env["pinned_cpu"] = cpu

    setups, setup_refs, warm_ok = [], [hostspeed.sample()], True
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(module)
        t0 = perf_counter()
        stream, warm, runner = build(args.workload, args.seed, trace_dir)
        warm_ok = warm.run() and warm_ok
        setups.append(imported + perf_counter() - t0)
        setup_refs.append(hostspeed.sample())
    if runner is not None:
        runner.records.clear()  # keep only the timed processes

    trace = tracer.Tracer() if args.trace else None
    if trace is not None and runner is None:
        trace.install()
    ops, failures, refs = [], [], [hostspeed.sample()]
    deadline = perf_counter() + args.seconds
    for idx, op in enumerate(stream):
        if trace is not None:
            trace.op = idx
        t0 = perf_counter()
        error = "wrong answer"
        try:
            ok = op.run()
        except Exception as exc:  # any exception is a failed op, not a crash
            ok, error = False, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        ops.append((t1 - t0, op.kind))
        if not ok:
            failures.append(f"op {idx} {op.kind}: {error}")
        refs.append(hostspeed.sample())
        if t1 >= deadline:
            break
    if trace is not None and runner is None:
        trace.uninstall()

    walls = [lat for lat, _ in ops]
    latencies = hostspeed.adjust(walls, refs)
    failed = len(failures)
    tail_pct = TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(latencies, tail_pct)
    raw_tail_s, _ = tail(walls, tail_pct)
    raw = {
        "ops_per_s": len(ops) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1000,
        "op_tail_ms": raw_tail_s * 1000,
        "setup_s": statistics.median(setups),
        "host_factor": statistics.median(refs) / hostspeed.NOMINAL_S,
    }
    if trace is None:
        peak_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
        ).ru_maxrss
        metrics = {
            "ops_per_s": len(ops) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_s * 1000,
            "setup_s": statistics.median(hostspeed.adjust(setups, setup_refs)),
            "peak_rss_mb": peak_kb / 1024,
        }
        units = dict(END_TO_END)
    else:
        if runner is not None:
            agg, processes = collect_children(runner)
        else:
            agg, processes = trace.aggregates(), None
        metrics = layer_metrics(agg, ops, sum(latencies))
        units = dict(PER_LAYER)

    mix: dict = {}
    for _, kind in ops:
        mix[kind] = mix.get(kind, 0) + 1
    env["ops"] = len(ops)
    env["op_mix"] = mix
    env["op_tail_percentile"] = tail_pct
    env["op_tail_samples_beyond"] = beyond
    env["setup_s_samples"] = setups
    env["raw"] = raw
    result = {
        "correct": failed == 0 and warm_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"env": env, "result": result, "latencies_s": latencies,
              "walls_s": walls, "host_samples_s": refs,
              "setup_host_samples_s": setup_refs, "failures": failures}
    if trace is not None:
        extra = {"record": record}
        if processes is not None:
            extra["processes"] = processes
        trace.write(OUT / (stem + "-spans.json.gz"), extra)
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    for f in failures[:10]:
        print("FAILED", f, file=sys.stderr)
    print("env:", json.dumps(env, sort_keys=True))
    n = len(ops)
    print(f"samples: {n} ops; op_tail_ms is p{tail_pct} with {beyond} samples beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: the run was too slow)"))
    print(f"error_rate = {failed / n:.6g} ratio ({failed}/{n} failed)"
          + ("" if warm_ok else "; warm-up op FAILED"))
    print("raw wall-clock, not host-adjusted: " + ", ".join(
        f"{name} = {val:.6g}" for name, val in raw.items()))
    for name, val in metrics.items():
        print(f"{name} = {val:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, with the tracing overhead."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[workload, trace] = json.loads(lines[-1])
            print(f"== {workload} trace={trace}")
            print("\n".join(lines[:-1]))
    print("== tracing overhead (traced ops_per_s / untraced ops_per_s)")
    for workload in WORKLOADS:
        untraced = results[workload, 0]["metrics"]["ops_per_s"]["value"]
        traced = results[workload, 1]["metrics"]["run.ops_per_s_traced"]["value"]
        print(f"{workload}: {traced:.4g} / {untraced:.4g} = {traced / untraced:.3f}")
    layer = {w: {k: v["value"] for k, v in results[w, 1]["metrics"].items()}
             for w in WORKLOADS}
    checks = (
        ("ns-iso: fm.feasible.calls == 0", layer["ns-iso"]["fm.feasible.calls"] == 0),
        ("ns-iso: cycles.line_cycle.calls > 0", layer["ns-iso"]["cycles.line_cycle.calls"] > 0),
        ("regions: cycles.line_cycle.calls == 0",
         layer["regions"]["cycles.line_cycle.calls"] == 0),
        ("regions: fm.feasible.busy_s >= 0.8 * run.op_busy_s",
         layer["regions"]["fm.feasible.busy_s"] >= 0.8 * layer["regions"]["run.op_busy_s"]),
        ("cli-mixed: linalg.quadext_share > 0.5",
         layer["cli-mixed"]["linalg.quadext_share"] > 0.5),
    )
    print("== layer checks")
    for what, passed in checks:
        print(("PASS " if passed else "FAIL ") + what)
    ok = all(r["correct"] for r in results.values())
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "normsys" / "__init__.py").is_file():
        print(f"error: no normsys sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
