"""cheegerlab benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload corpus --seed 1729 --seconds 25 --trace 0

One caller runs one operation at a time (closed loop, single process)
over a fixed number of cycles of operation kinds: about --seconds of op
time at the reference pace (workload.cycle_s), the same work on every
commit.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (see tracer.py), each op also run untraced beside it to
measure the tracing overhead.  --seconds defaults to run_seconds in
BENCHMARK.json.  End-to-end times are scaled to a reference host pace,
measured by a fixed loop beside the ops (README, "Pace"); the wall-clock
values are printed next to them.
Every op's output is checked after the timed window; for the default
seed the first cycle is also compared with expected.json.

Run from the repository root; the package is imported from ./src.
"""

import os
import sys
import time

SPAWNED = time.monotonic()

# Cap BLAS/OpenMP threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    _have = os.environ.get(_var, "")
    if not (_have.isdigit() and 0 < int(_have) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1729          # cheegerlab.rng.DEFAULT_SEED; the seed expected.json holds
SETUP_REPEATS = 7
# Host pace (README, "Pace"): a fixed pure-Python loop runs before every op,
# outside the op time, and each op's latency is scaled to the pace at which
# that loop takes PACE_REFERENCE_S.
PACE_ITERS = 15000
PACE_REFERENCE_S = 0.002
PACE_SETUP_PROBES = 9
WAIT_NOTE = "wait time: not applicable (single process, single caller, no queues)"


def _import_package():
    sys.path.insert(0, SRC)
    import cheegerlab

    where = os.path.dirname(os.path.abspath(cheegerlab.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"cheegerlab imported from {where}, not from {SRC}")
    return cheegerlab


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-expected", action="store_true",
                   help="store the first cycle's outputs of the default seed in expected.json")
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(SPEC, "r", encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    return args


def cycles(w, seconds: float, trace: int) -> int:
    """A run's fixed cycle count: about `seconds` of op time at the
    reference pace (a traced run counts its untraced and traced runs of
    each op together).  It depends on nothing the commit changes, so every
    commit does the same work for a seed."""
    return max(1, round(seconds / ((1 + trace) * w.cycle_s)))


def environment(cheegerlab) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "cheegerlab": cheegerlab.__version__,
    }


def _run_op(w, op):
    """(raw output, error message) of one op; an op that raises fails."""
    try:
        return w.run(op), None
    except (Exception, SystemExit) as exc:  # the op's failure is counted, not fatal
        return None, f"raised {type(exc).__name__}: {exc}"


def _digest(w, op, raw, full: bool):
    try:
        return w.digest(op, raw, full), None
    except (Exception, SystemExit) as exc:
        return None, f"unreadable output: {type(exc).__name__}: {exc}"


def check_outputs(w, ops, digests, errors, seed: int) -> dict:
    """Fill `errors` (op index -> message) from the checks; returns the
    first cycle's digests for expected.json."""
    want = None
    if seed == DEFAULT_SEED and os.path.exists(EXPECTED):
        with open(EXPECTED, "r", encoding="utf-8") as fh:
            want = json.load(fh).get(w.name)
    for i, d in enumerate(digests):
        if i in errors:
            continue
        try:
            problem = w.check(ops[i], d)
            if problem is None and want is not None and i < len(want):
                problem = w.compare(ops[i], d, want[i])
                if problem:
                    problem = "expected.json: " + problem
        except (Exception, SystemExit) as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            errors[i] = problem
    return digests[: w.cycle]


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def pace_probe() -> float:
    """Seconds that one pass of a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    table = {}
    slots = [0] * 64
    acc = 0.0
    for i in range(PACE_ITERS):
        table[i & 255] = acc
        slots[i & 63] = i
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def at_reference_pace(latencies, paces, cycle: int) -> list[float]:
    """Each op's latency times PACE_REFERENCE_S / the median probe time of
    its cycle."""
    scaled = []
    for c in range(0, len(latencies), cycle):
        factor = PACE_REFERENCE_S / statistics.median(paces[c:c + cycle])
        scaled += [dt * factor for dt in latencies[c:c + cycle]]
    return scaled


def _bounds_caches() -> list:
    import importlib

    from tracer import BOUNDS_CACHES

    bounds = importlib.import_module("cheegerlab.bounds")
    return [c for c in (getattr(bounds, name, None) for name in BOUNDS_CACHES) if c is not None]


def timed_run(w, ops, n_cycles: int, seed: int, workdir: str):
    """Closed loop over `n_cycles` cycles.

    `ops` holds the first cycle; each later cycle's inputs are made (and
    appended to `ops`) before it starts, outside the op time."""
    latencies, paces, digests, errors = [], [], [], {}
    first_op = time.monotonic()
    pace_probe()  # warm-up
    for i in range(n_cycles * w.cycle):
        if i == len(ops):
            ops.extend(w.make_ops(seed, i // w.cycle, workdir))
        op = ops[i]
        paces.append(pace_probe())
        t0 = time.perf_counter()
        raw, err = _run_op(w, op)
        latencies.append(time.perf_counter() - t0)
        d = None
        if err is None:
            d, err = _digest(w, op, raw, i < w.cycle)
        if err:
            errors[i] = err
        digests.append(d)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return latencies, paces, digests, errors, first_op, rss_mb


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes, spawn to inputs ready, and each
    process's median pace probe time, measured after its set-up."""
    times, paces = [], []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, pace = map(float, proc.stdout.split())
        times.append(ready - start)
        paces.append(pace)
    return times, paces


def refusals(digests, errors) -> int:
    """Failed ops whose only fault is the nodal check's documented
    NonGenericError ("try another seed"): they count as failed, but their
    outputs are not wrong, so they leave `correct` true."""
    from workloads import refused

    return sum(1 for i in errors if digests[i] is not None and refused(digests[i]))


def by_kind(w, ops, latencies) -> str:
    """Median latency (ms) of each op kind, in cycle order."""
    kinds = {}
    for op, dt in zip(ops, latencies):
        kinds.setdefault(op["kind"], []).append(dt)
    return " ".join(f"{k}={statistics.median(v) * 1e3:.1f}" for k, v in kinds.items())


def end_to_end(args, w, ops, workdir):
    wall, paces, digests, errors, first_op, rss_mb = timed_run(
        w, ops, cycles(w, args.seconds, 0), args.seed, workdir)
    own_setup = first_op - SPAWNED
    first_cycle = check_outputs(w, ops, digests, errors, args.seed)
    setup_wall, setup_paces = setup_probes(args)
    latencies = at_reference_pace(wall, paces, w.cycle)
    setups = [t * PACE_REFERENCE_S / p for t, p in zip(setup_wall, setup_paces)]
    attempted = len(latencies)
    failed = len(errors)
    tail_ms, beyond = tail(latencies, w.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_ms * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall_tail, _ = tail(wall, w.tail_pct)
    as_measured = {
        "setup_s": statistics.median(setup_wall),
        "ops_per_s": attempted / sum(wall),
        "latency_p50_ms": statistics.median(wall) * 1e3,
        "latency_tail_ms": wall_tail * 1e3,
    }
    print(f"workload {w.name}: {attempted} ops in {sum(wall):.3f} s of op time "
          f"({attempted // w.cycle} cycles of {w.cycle}), closed loop, 1 caller")
    print(f"  pace probe: median {statistics.median(paces) * 1e3:.3f} ms "
          f"(min {min(paces) * 1e3:.3f}, max {max(paces) * 1e3:.3f}); "
          f"times below are at the reference pace {PACE_REFERENCE_S * 1e3:.3f} ms, "
          f"wall-clock values in brackets")
    for name, (value, unit) in metrics.items():
        note = f"   [{as_measured[name]:.6f}]" if name in as_measured else ""
        if name == "latency_tail_ms":
            note += f"   (p{w.tail_pct}, {beyond} samples beyond, n={attempted})"
        elif name == "setup_s":
            note += (f"   (median of {len(setups)} fresh processes: "
                     + " ".join(f"{t:.4f}" for t in setups) + f"; this process {own_setup:.4f})")
        print(f"  {name:16s} {value:14.6f} {unit}{note}")
    print(f"  {'error_rate':16s} {failed / attempted:14.6f} failed/attempted ({failed}/{attempted})")
    refused = refusals(digests, errors)
    if refused:
        print(f"  {refused} of the failed op(s) hit the documented NonGenericError")
    print(f"  latency p50 by kind (ms): {by_kind(w, ops, latencies)}")
    print(f"  {WAIT_NOTE}")
    return attempted, errors, refused, metrics, first_cycle


def traced(args, w, ops):
    """Each op runs untraced, then traced, from cold bounds caches; the
    outputs must agree.  `attempted` counts both runs of every op."""
    from tracer import Tracer

    tracer = Tracer()
    caches = _bounds_caches()
    plain_time = 0.0
    hits = misses = 0
    digests, errors = [], {}
    for i, op in enumerate(ops):
        for cache in caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        raw, err = _run_op(w, op)
        plain_time += time.perf_counter() - t0
        d_plain = None
        if err is None:
            d_plain, err = _digest(w, op, raw, i < w.cycle)
        for cache in caches:
            cache.cache_clear()
        tracer.install()
        with tracer.op_span(i):
            raw, err_t = _run_op(w, op)
        tracer.uninstall()
        for cache in caches:
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
        d = None
        if err_t is None:
            d, err_t = _digest(w, op, raw, i < w.cycle)
        err = err or err_t
        if err is None and d != d_plain:
            err = "traced output differs from the untraced output"
        if err:
            errors[i] = err
        digests.append(d)
    check_outputs(w, ops, digests, errors, args.seed)
    refused = refusals(digests, errors)
    table = tracer.layer_table()
    trace_path = os.path.join(OUT_DIR, f"trace-{w.name}-{args.seed}.jsonl")
    tracer.write(trace_path)

    def per(a, b):
        return a / b if b else 0.0

    work = tracer.work
    m = {}
    for layer in ("graph", "nodal", "perturb", "cli", "cheeger.sweep", "spectral", "bounds",
                  "cheeger.profile", "cheeger.signed_profile",
                  "cheeger.search", "cheeger.signed_search"):
        m[f"{layer}.calls"] = (table[layer]["calls"], "count")
        m[f"{layer}.self_s"] = (table[layer]["self_s"], "s")
    solves = work["spectral.solves"]
    m["spectral.ms_per_call"] = (per(table["spectral"]["self_s"] * 1e3, solves), "ms")
    m["spectral.repeat_ratio"] = (per(solves, len(tracer.solve_inputs)), "ratio")
    for layer in ("cheeger.profile", "cheeger.signed_profile"):
        iters = work[f"{layer}.iters"]
        m[f"{layer}.iters"] = (iters, "count")
        m[f"{layer}.ns_per_iter"] = (per(table[layer]["self_s"] * 1e9, iters), "ns")
    for layer in ("cheeger.search", "cheeger.signed_search"):
        states = work[f"{layer}.states"]
        m[f"{layer}.states"] = (states, "count")
        m[f"{layer}.states_per_s"] = (per(states, table[layer]["self_s"]), "1/s")
    m["bounds.records"] = (work["bounds.records"], "count")
    m["bounds.cache_hits"] = (hits, "count")
    m["bounds.cache_misses"] = (misses, "count")
    m["bounds.cache_hit_ratio"] = (per(hits, hits + misses), "ratio")
    op_s = table["harness"]["op_s"]
    m["harness.self_s"] = (table["harness"]["self_s"], "s")
    m["trace.op_s"] = (op_s, "s")
    m["trace.ops"] = (len(ops), "count")
    m["trace.overhead_pct"] = (100.0 * (op_s / plain_time - 1.0), "%")

    layer_sum = sum(row["self_s"] for row in table.values())
    print(f"workload {w.name}: traced {len(ops)} ops ({len(ops) // w.cycle} cycles); "
          f"spans {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    if tracer.missing:
        print("  not wrapped (absent): " + ", ".join(tracer.missing))
    print(f"  {'layer':24s} {'calls':>9s} {'self_s':>12s} {'share':>7s}")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:24s} {row['calls']:9d} {row['self_s']:12.6f} "
              f"{100.0 * per(row['self_s'], op_s):6.2f}%")
    print(f"  layer self times + harness = {layer_sum:.6f} s; traced op time = {op_s:.6f} s; "
          f"untraced op time = {plain_time:.6f} s")
    print(f"  cache hit ratio base: {hits + misses} lookups; repeat ratio base: "
          f"{len(tracer.solve_inputs)} distinct eigenproblem inputs")
    print(f"  {WAIT_NOTE}")
    return 2 * len(ops), errors, refused, m


def run_all(args, workloads) -> int:
    """Every workload in turn, each in a fresh process; non-zero unless all are correct."""
    status = 0
    for name in workloads:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its work directory and set-up probes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        cheegerlab = _import_package()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import cheegerlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        first = cycles(w, args.seconds, 1) if args.trace else 1
        ops = [op for c in range(first) for op in w.make_ops(args.seed, c, workdir)]
        if args.setup_probe:
            ready = time.monotonic()
            pace = statistics.median(pace_probe() for _ in range(PACE_SETUP_PROBES))
            print(ready, pace)
            return 0
        print("env: " + json.dumps(environment(cheegerlab), sort_keys=True))
        if args.trace:
            attempted, errors, refused, metrics = traced(args, w, ops)
        else:
            attempted, errors, refused, metrics, first_cycle = end_to_end(args, w, ops, workdir)
            if args.write_expected:
                _write_expected(w, first_cycle, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, message in sorted(errors.items())[:20]:
        print(f"  FAILED op {i} ({ops[i]['kind']}): {message}")
    result = {
        "correct": len(errors) == refused,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _write_expected(w, first_cycle, seed: int) -> None:
    if seed != DEFAULT_SEED:
        raise SystemExit(f"--write-expected needs the default seed {DEFAULT_SEED}")
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data[w.name] = first_cycle
    # One op per line keeps the file diffable.
    blocks = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(d, sort_keys=True) for d in ops) + "\n]"
        for name, ops in sorted(data.items())
    ]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
