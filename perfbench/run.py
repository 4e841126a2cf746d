"""rdmkit benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T]
                             [--trace 0|1]

Run from the root of a source checkout; rdmkit is imported from ./src and
nowhere else.  Workloads: verdict-haar, verdict-ghz, partner-proof and
detect-scale (see perfbench/README.md for why each exists).

--trace 0 prints the end-to-end metrics: one workload process, a closed
loop with one client, measures whole passes of its corpus for --seconds;
SETUP_SAMPLES - 1 further fresh processes only set up, and setup_s is the
median set-up time over all of them.  --trace 1 prints the per-layer
metrics of a separate process that makes a fixed set of passes untraced
and then traced.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
provenance and run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("verdict-haar", "verdict-ghz", "partner-proof", "detect-scale")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = "1"   # one client on a 2-core machine shared with others

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKDIR = ".perfbench_work"   # relative to the checkout root, as in worker.py


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(args, env, deadline):
    """Run one worker; return (set-up seconds, parsed result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, env=env,
                            stdout=subprocess.PIPE, text=True)
    # kills a worker that overruns, which also ends the read loop below
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        # a worker removes its own state files; this covers one that died
        shutil.rmtree(os.path.join(WORKDIR, str(proc.pid)), ignore_errors=True)
    if code != 0 or ready is None or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {code}")
    return ready, json.loads(lines[-1])


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def _source_digest(root):
    """sha256 over src/rdmkit's Python files, in name order."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "rdmkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def end_to_end(measured, setups):
    """The end-to-end metrics of one measured run and its set-up samples."""
    return {
        "ops_per_s": {"value": measured["ops_per_s"], "unit": "ops/s"},
        "latency_p50_s": {"value": measured["latency_p50_s"], "unit": "s"},
        "latency_tail_s": {"value": measured["latency_tail_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rdmkit", "__init__.py")):
        print("error: run from the root of an rdmkit checkout "
              "(src/rdmkit not found)", file=sys.stderr)
        return 2
    env = _child_env(root)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": _git_commit(root),
            "src_sha256": _source_digest(root),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_requested": int(BLAS_THREADS),
            "timer": "time.perf_counter", "clients": 1, "loop": "closed"}
    try:
        if args.trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir,
                                 f"spans-{args.workload}-{args.seed}.jsonl")
            _, res = _run_child(common + ["--mode", "trace", "--spans", spans],
                                env, deadline)
            metrics = res["per_layer"]
            info.update(spans_file=os.path.relpath(spans, root),
                        layer_shares=res["layer_shares"])
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_child(common + ["--mode", "setup"],
                                         env, deadline)[0])
            ready, res = _run_child(
                common + ["--mode", "measure", "--seconds", str(args.seconds)],
                env, deadline)
            setups.append(ready)
            metrics = end_to_end(res, setups)
            info.update(setup_samples_s=setups, passes=res["passes"],
                        measured_s=res["elapsed_s"],
                        failed_frac={"value": res["failed"] / res["attempted"],
                                     "unit": "ratio"},
                        latency_tail={"percentile": res["tail_percentile"],
                                      "samples": res["tail_samples"],
                                      "beyond": res["tail_beyond"]})
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    info.update(res["provenance"], failures=res["failures"])
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
