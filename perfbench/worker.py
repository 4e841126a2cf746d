"""One workload process: set-up, then nothing, a measured run or a traced run.

    python3 perfbench/worker.py --workload W --seed S --mode setup|measure|trace
                                [--seconds T] [--spans FILE]

run.py starts a fresh interpreter per set-up sample.  On standard output the
process prints `READY` once set-up (imports, corpus and state files, one
warm-up call per qubit count) has finished, then one JSON line with its
results.  State files live in a directory of their own under
`.perfbench_work/`, removed on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10

# fewest passes in a measured run.  The tail latency is the 11th largest
# sample.  A detect-scale pass holds three n=11 calls, so four passes keep
# at least 12 of them in every run and the tail inside that group however
# fast the machine runs.  In the other workloads the tail falls inside the
# largest group of a single pass.
MIN_PASSES = {"verdict-haar": 1, "verdict-ghz": 1, "partner-proof": 1,
              "detect-scale": 4}

# passes per traced run (each made once untraced and once traced); fixed so
# that the counts of two traced runs with one seed repeat exactly
TRACE_PASSES = {"verdict-haar": 2, "verdict-ghz": 2, "partner-proof": 40,
                "detect-scale": 1}


def _run_op(op, run=None):
    """(seconds, failure reason or None); a raising call is a failure.
    `run`, when given, makes the call: run(op.call)."""
    t0 = time.perf_counter()
    try:
        out = op.call() if run is None else run(op.call)
    except Exception as exc:  # recorded as a failed operation; the run goes on
        secs = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return secs, f"raised {exc!r}"[:200]
    secs = time.perf_counter() - t0
    try:
        return secs, op.verify(out)
    except Exception as exc:  # a malformed output fails its check
        traceback.print_exc(file=sys.stderr)
        return secs, f"check raised {exc!r}"[:200]


def _tally(ops_and_results, failures):
    for op, (_, reason) in ops_and_results:
        if reason is not None:
            failures.append(f"{op.kind} n={op.n}: {reason}")


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it.  Runs too short for that fall back
    to the median, never to a percentile below it."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n // 2)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def measure(passes, seconds, min_passes=1):
    """Closed loop, one client: whole passes until `seconds` have elapsed
    and at least `min_passes` are done."""
    done, failures = [], []
    start = time.perf_counter()
    p = 0
    while True:
        for op in passes[p % len(passes)]:
            done.append((op, _run_op(op)))
        p += 1
        if p >= min_passes and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    _tally(done, failures)
    lat = [secs for _, (secs, _) in done]
    value, pct, beyond = tail(lat)
    return {"attempted": len(done), "failed": len(failures),
            "failures": failures[:20], "passes": p, "elapsed_s": elapsed,
            "ops_per_s": (len(done) - len(failures)) / elapsed,
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": value, "tail_percentile": pct,
            "tail_samples": len(lat), "tail_beyond": beyond}


def traced(passes, count, spans_path):
    """`count` passes untraced, then the same passes traced; per-layer
    metrics from the traced ones."""
    from spans import Tracer

    ops = [op for p in range(count) for op in passes[p % len(passes)]]
    plain = [(op, _run_op(op)) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        spanned = [(op, _run_op(op, tracer.op)) for op in ops]
    finally:
        tracer.remove()
    tracer.write(spans_path)
    failures = []
    _tally(plain + spanned, failures)
    untraced_s = sum(secs for _, (secs, _) in plain)
    traced_s = sum(secs for _, (secs, _) in spanned)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.ops"] = (len(ops), "count")
    return {"attempted": len(plain) + len(spanned), "failed": len(failures),
            "failures": failures[:20], "layer_shares": tracer.layer_shares(),
            "per_layer": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}


def _blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance():
    import numpy as np
    import rdmkit

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "rdmkit": rdmkit.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import corpus
    import rdmkit

    src = os.path.realpath(os.path.join("src", "rdmkit"))
    if os.path.dirname(os.path.realpath(rdmkit.__file__)) != src:
        print(f"error: imported rdmkit from {rdmkit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        passes = corpus.build(args.workload, args.seed, workdir)
        corpus.warm_up(passes)
        print("READY", flush=True)
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure(passes, args.seconds, MIN_PASSES[args.workload])
        else:
            result = traced(passes, TRACE_PASSES[args.workload], args.spans)
    finally:
        shutil.rmtree(workdir)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["provenance"] = provenance()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
