"""Benchmark entry point.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it spends the first half of ``--seconds`` untraced and
the second half traced, and reports the per-layer metrics plus the
tracing overhead.  Every metric listed in ``BENCHMARK.json`` is printed
as ``metric <name> <value> <unit>``, followed by an ``env`` line and an
``info`` line; the last line is the JSON result.
"""

import os

# One BLAS thread, set before numpy is imported: with default OpenBLAS
# threads on a 2-core machine the same dim-80 eigh took 11.4 ms in one
# process and 0.9 ms in the next.  Child processes inherit the pin.
BLAS_PIN = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_PIN

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5
TAIL_BEYOND = 10


def _import_program():
    """Put ``src/`` first on the path; fail loudly when it is absent."""
    if not (SRC / "corrlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no corrlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import corrlab.cli  # noqa: F401  (counted in set-up, as a user pays it)
    import workloads

    return workloads


def _setup_probe(workload, seed):
    """Child process: import, build the inputs, say so, exit."""
    wl = _import_program()
    setup, _ = wl.WORKLOADS[workload]
    setup(seed, WORK / f"probe-{os.getpid()}")
    print("ready", flush=True)
    shutil.rmtree(WORK / f"probe-{os.getpid()}", ignore_errors=True)


def _setup_seconds(workload, seed, probes):
    """Process start to inputs ready, in ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return times


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the
    maximum is reported and labelled p100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n, n


def _ops_per_s(rounds):
    """Median over rounds of ops completed per second of the round."""
    rates = [done / wall for done, wall in rounds if wall > 0]
    return statistics.median(rates) if rates else 0.0


def _environment(workload, seed, threads):
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    tree = hashlib.sha256()
    for p in sorted((SRC / "corrlab").glob("*.py")):
        tree.update(p.name.encode() + p.read_bytes())
    return {
        "commit": commit,
        "source_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    wl = _import_program()
    from tracer import NullTracer, Tracer, layer_metrics, repro_stage_metrics

    # probes before and after the timed section sample two machine states
    setup_all = _setup_seconds(args.workload, args.seed, SETUP_PROBES - 2)
    setup, run = wl.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    inputs = setup(args.seed, work)
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = run(inputs, half, NullTracer())
            tracer = Tracer().install()
            try:
                outcome = run(inputs, half, tracer)
            finally:
                tracer.uninstall()
        else:
            outcome = run(inputs, args.seconds, NullTracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_all += _setup_seconds(args.workload, args.seed, 2)

    ops_per_s = _ops_per_s(outcome.rounds)
    tail, tail_pct, n = _tail(outcome.latencies_s)
    metrics = {
        "setup_s": statistics.median(setup_all),
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1000.0 * statistics.median(outcome.latencies_s),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "error_rate": (outcome.failed + outcome.uncertified) / outcome.attempted,
        "uncertified": outcome.uncertified,
        "op_tail_percentile": tail_pct,
        "op_samples": n,
        "setup_probes_s": setup_all,
        # both passes of a traced run start from the same state
        "digest_sha256": (plain if args.trace else outcome).digest,
        **outcome.extra,
    }
    wanted = spec["end_to_end"]
    if args.trace:
        ops, reruns = outcome.attempted, ()
        if args.workload == "repro":  # round 0, the cold run, is traced too
            ops, reruns = ops + 1, range(1, len(outcome.rounds) + 1)
        metrics, by_round = layer_metrics(tracer, ops)
        metrics.update(repro_stage_metrics(by_round, reruns))
        untraced = _ops_per_s(plain.rounds)
        metrics["trace.ops_per_s"] = ops_per_s
        metrics["trace.overhead_ops_per_s"] = ops_per_s - untraced
        info["untraced_ops_per_s"] = untraced
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    result = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
              for m in wanted}
    for name, v in result.items():
        print(f"metric {name} {v['value']:.6g} {v['unit']}")
    print(f"metric error_rate {info['error_rate']:.6g} ratio "
          f"({outcome.failed} failed and {outcome.uncertified} uncertified "
          f"of {outcome.attempted} ops)")
    print(f"metric op_tail_ms is p{tail_pct:.1f} of n={n} op latencies")
    if "cold_s" in info:
        print(f"metric cold_s {info['cold_s']:.6g} s")
    print("env " + json.dumps(_environment(args.workload, args.seed, wl.THREADS)))
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
