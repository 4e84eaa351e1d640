"""Self-checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/selfcheck.py

The trace must be invisible to the program (same stdout bytes and exit code
as an untraced call) and its counts must be exact (two traced calls agree on
every count).  Each workload takes about three CLI calls.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_trace_is_transparent_and_counts_repeat(workload):
    bench.RESULTS.mkdir(exist_ok=True)
    golden = bench.load_golden()
    argv = bench.WORKLOADS[workload]
    plain = bench.run_cli(argv, golden)
    assert plain["ok"], plain
    counts = []
    for i in range(2):
        summary = bench.RESULTS / f"selfcheck-{workload}-{i}.json"
        spans = bench.RESULTS / f"selfcheck-{workload}-{i}.spans.json.gz"
        traced = bench.run_call(" ".join(argv), bench.tracer_cmd(argv, summary, spans), golden)
        assert (traced["exit_code"], traced["sha256"]) == (plain["exit_code"], plain["sha256"])
        with open(summary, encoding="utf-8") as fh:
            values = bench.layer_values(json.load(fh))
        counts.append({k: v for k, v in values.items() if bench.unit_of(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["combo.substitute.updates"] > 0


def test_refuses_to_run_without_sources():
    """In a directory holding only BENCHMARK.json and this directory, the
    benchmark exits non-zero without printing a result."""
    bench.RESULTS.mkdir(exist_ok=True)
    bare = bench.RESULTS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH, bare / bench.BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{bench.BENCH.name}/bench.py", "--workload", "atomic-b-heavy",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
