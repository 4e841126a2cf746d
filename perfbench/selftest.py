"""Quick self-test of the benchmark on a tiny corpus (well under a minute).

    python3 perfbench/selftest.py        # from the root of the checkout

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted for every workload, that a deliberately wrong expected result
is counted as a failed operation rather than raised, that the command
prints its result as the last line, and that it refuses to run (non-zero
exit, no result) without the rdmkit sources next to it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import corpus  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from rdmkit import cli  # noqa: E402

TMPDIR = os.path.join(ROOT, run.WORKDIR, f"selftest-{os.getpid()}")


def _tiny(workload):
    """The first two operations at the workload's smallest qubit count."""
    first = corpus.build(workload, 7, TMPDIR, passes=1)[0]
    smallest = min(op.n for op in first)
    return [[op for op in first if op.n == smallest][:2]]


def _names(spec, key):
    return {m["name"] for m in spec[key]}


def check_metric_names(spec):
    for workload in corpus.WORKLOADS:
        passes = _tiny(workload)
        measured = worker.measure(passes, 0.0)
        measured["peak_rss_mb"] = 1.0
        e2e = run.end_to_end(measured, [0.1])
        assert set(e2e) == _names(spec, "end_to_end"), (workload, set(e2e))
        assert measured["failed"] == 0, (workload, measured["failures"])
        spans = os.path.join(TMPDIR, f"spans-{workload}.jsonl")
        traced = worker.traced(passes, 1, spans)
        assert set(traced["per_layer"]) == _names(spec, "per_layer"), workload
        assert traced["failed"] == 0, (workload, traced["failures"])
        assert os.path.getsize(spans) > 0
        print(f"ok  metric names: {workload}")


def check_wrong_expectation_counts_as_failure():
    op = _tiny("verdict-haar")[0][0]
    op.expect = cli.EXIT_UNDETERMINED   # a Haar state is determined: exit 0
    measured = worker.measure([[op]], 0.0)
    assert measured["attempted"] == 1 and measured["failed"] == 1, measured
    assert measured["ops_per_s"] == 0.0
    op = _tiny("detect-scale")[0][0]
    op.expect = not op.expect
    measured = worker.measure([[op]], 0.0)
    assert measured["failed"] == 1, measured
    print("ok  wrong expected result is a counted failure")


def check_command(spec):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "partner-proof", "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["correct"] and last["failed"] == 0, last
    assert set(last["metrics"]) == _names(spec, "end_to_end")
    print("ok  command prints the result line")


def check_refuses_without_sources():
    bare = os.path.join(TMPDIR, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict-haar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  refuses to run without the rdmkit sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(TMPDIR)
    try:
        check_metric_names(spec)
        check_wrong_expectation_counts_as_failure()
        check_command(spec)
        check_refuses_without_sources()
    finally:
        shutil.rmtree(TMPDIR)
        try:
            os.rmdir(os.path.join(ROOT, run.WORKDIR))
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
