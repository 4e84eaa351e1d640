"""The g2atomic benchmark: fresh-process CLI calls checked against golden bytes.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  One closed-loop client (concurrency 1) runs the workload's CLI
call in a fresh ``python3 -m g2atomic.cli`` process, again and again, until
``--seconds`` have passed.  Every call's exit code and stdout sha256 are
compared with ``golden.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced calls with calls run under ``tracer.py`` and reports the per-layer
metrics.  The metric names come from ``BENCHMARK.json``.  The last line of
stdout is one JSON object; the lines before it are the same figures for a
reader.  A result file with the run's samples and environment is written to
``benchmarks/results/``.  See README.md in this directory for the workloads
and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = {
    "atomic-b-heavy": ("atomic", "0", "100"),
    "atomic-a-heavy": ("atomic", "300", "1"),
    "kf-column": ("standard", "30", "30"),
    "verify-sweep": ("verify", "--max-a", "16", "--max-b", "16"),
}
# Interpreter start, package import and argparse: what every call pays.
SETUP_ARGV = ("atomic", "0", "0")
# Per workload call, this many set-up probes and reference jobs run too, in
# one round whose order the seed shuffles.
PROBES_PER_CALL = 3
REFS_PER_CALL = 5
# Wall time of reference.py on the 2-vCPU Xeon VM the benchmark was defined
# on, in a quiet period.  Time metrics are reported at this host speed.
REFERENCE_S = 0.100
# A call still running after this long is killed and counts as failed.
CALL_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or metadata)."""


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def load_golden() -> dict:
    """Expected exit code and stdout sha256 per call, keyed by its argv."""
    return _load_json(BENCH / "golden.json")["calls"]


def tracer_cmd(argv, summary: Path, spans: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(SRC), str(summary),
            str(spans), "--", *argv]


REFERENCE = ("reference.py", [sys.executable, str(BENCH / "reference.py")])


def run_call(key: str, cmd: list[str], golden: dict) -> dict:
    """Run cmd as a fresh process.  Returns wall and CPU seconds, peak RSS,
    and whether exit code and stdout bytes match golden[key]."""
    want = golden[key]
    with tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=err) as proc:
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read(2000).decode("utf-8", "replace")
    sha = hashlib.sha256(out).hexdigest()
    ok = proc.returncode == want["exit_code"] and sha == want["sha256"]
    return {"call": key, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024, "exit_code": proc.returncode,
            "stdout_bytes": len(out), "sha256": sha, "ok": ok,
            "stderr": "" if ok else stderr}


def run_cli(argv, golden: dict) -> dict:
    return run_call(" ".join(argv), [sys.executable, "-m", "g2atomic.cli", *argv], golden)


def environment() -> dict:
    """Provenance recorded in every result file."""
    sha = dirty = None
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            sha = rev.stdout.strip()
            st = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                cwd=ROOT, env=git_env, capture_output=True,
                                text=True, timeout=30)
            dirty = bool(st.stdout.strip()) if st.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "src_dirty": dirty,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0]}


def measure(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, list]:
    """End-to-end run: rounds of one workload call, PROBES_PER_CALL set-up
    probes and REFS_PER_CALL reference jobs, order shuffled by the seed,
    until the time is up.

    The host's speed drifts by up to about 2x over seconds to minutes (other
    tenants), so every time sample is divided by its round's host factor:
    the median of the round's reference jobs over REFERENCE_S.  Each time
    metric is the median of those scaled samples.  Raw medians are kept in
    the result file."""
    rng = random.Random(seed)
    argv = WORKLOADS[workload]
    key = " ".join(argv)
    # warm-up, unmeasured: bytecode caches and the page cache
    calls = [run_cli(SETUP_ARGV, golden), run_call(*REFERENCE, golden)]
    jobs = ([lambda: run_cli(argv, golden)]
            + [lambda: run_cli(SETUP_ARGV, golden)] * PROBES_PER_CALL
            + [lambda: run_call(*REFERENCE, golden)] * REFS_PER_CALL)
    work, probes, factors = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        rng.shuffle(jobs)
        rnd = [job() for job in jobs]
        calls += rnd
        factor = statistics.median(c["wall_s"] for c in rnd
                                   if c["call"] == REFERENCE[0]) / REFERENCE_S
        factors.append(factor)
        for c in rnd:
            c["host_factor"] = factor
            if c["call"] == key:
                work.append(c)
            elif c["call"] != REFERENCE[0]:
                probes.append(c)
        if time.monotonic() >= deadline:
            break

    def scaled(samples, field):
        return statistics.median(c[field] / c["host_factor"] for c in samples)

    metrics = {"wall_s": (scaled(work, "wall_s"), "s"),
               "cpu_s": (scaled(work, "cpu_s"), "s"),
               "peak_rss_mb": (max(c["maxrss_mb"] for c in work), "MB"),
               "setup_s": (scaled(probes, "wall_s"), "s")}
    raw = {"wall_s": statistics.median(c["wall_s"] for c in work),
           "cpu_s": statistics.median(c["cpu_s"] for c in work),
           "setup_s": statistics.median(c["wall_s"] for c in probes)}
    notes = {name: f"median of {len(work)}, raw {raw[name]:.4g} s"
             for name in ("wall_s", "cpu_s")}
    notes["setup_s"] = f"median of {len(probes)}, raw {raw['setup_s']:.4g} s"
    notes["peak_rss_mb"] = f"max of {len(work)}"
    host = (f"host factor per round (median of {REFS_PER_CALL} reference jobs / "
            f"{REFERENCE_S} s): " + ", ".join(f"{f:.3f}" for f in factors))
    return {"metrics": metrics, "notes": notes, "raw": raw, "host_note": host}, calls


# Per-layer metrics that are counts must repeat exactly between traced calls.
COUNT_SUFFIXES = (".calls", ".hits", ".misses", ".size", ".updates", ".out_monomials")


def unit_of(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith(".useful_ratio"):
        return "ratio"
    return "s"


def layer_values(summary: dict) -> dict:
    """Flatten one tracer summary into per-layer metric values."""
    vals = {}
    for name, row in summary["spans"].items():
        vals[f"{name}.calls"] = row["calls"]
        vals[f"{name}.self_s"] = row["self_s"]
    sub = summary["substitute"]
    for key in ("calls", "updates", "out_monomials"):
        vals[f"combo.substitute.{key}"] = sub[key]
    vals["combo.substitute.useful_ratio"] = (
        sub["out_monomials"] / sub["updates"] if sub["updates"] else 0.0)
    for layer, info in summary["memo"].items():
        vals[f"{layer}.hits"] = info["hits"]
        vals[f"{layer}.misses"] = info["misses"]
        vals[f"{layer}.size"] = info["currsize"]
    for check, s in summary["checks"].items():
        vals[f"cli.check.{check}.s"] = s
    return vals


def measure_traced(workload: str, seconds: float, golden: dict) -> tuple[dict, list]:
    """Traced run: pairs of one untraced and one traced call until the time
    is up.  Counts come from the traced calls and must agree exactly; times
    are raw medians; trace.overhead_s is the median traced wall time minus
    the median untraced one."""
    argv = WORKLOADS[workload]
    key = " ".join(argv)
    summary_path = RESULTS / f"{workload}.trace-summary.json"
    spans_path = RESULTS / f"{workload}.spans.json.gz"
    calls = [run_cli(SETUP_ARGV, golden)]
    untraced, traced, values, absent = [], [], [], set()
    deadline = time.monotonic() + seconds
    while True:
        untraced.append(run_cli(argv, golden))
        traced.append(run_call(key, tracer_cmd(argv, summary_path, spans_path), golden))
        if traced[-1]["ok"]:
            summary = _load_json(summary_path)
            absent.update(summary["absent"])
            values.append(layer_values(summary))
        if time.monotonic() >= deadline:
            break
    calls += untraced + traced
    metrics, repeat_ok = {}, True
    for name in sorted(set().union(*values)) if values else []:
        col = [v.get(name, 0) for v in values]
        if unit_of(name) == "s":
            metrics[name] = (statistics.median(col), "s")
        else:
            repeat_ok &= len(set(col)) == 1
            metrics[name] = (col[0], unit_of(name))
    metrics["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                   - statistics.median(c["wall_s"] for c in untraced), "s")
    notes = {name: f"median of {len(values)} traced" for name, (_, unit) in metrics.items()
             if unit == "s"}
    notes["trace.overhead_s"] = f"{len(traced)} traced vs {len(untraced)} untraced"
    return {"metrics": metrics, "notes": notes, "absent": sorted(absent),
            "counts_repeat": repeat_ok}, calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "g2atomic" / "cli.py").is_file():
            raise BenchError(f"no g2atomic sources under {SRC}")
        spec = _load_json(ROOT / "BENCHMARK.json")
        golden = load_golden()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = environment()

    if args.trace:
        result, calls = measure_traced(args.workload, args.seconds, golden)
        wanted = spec["per_layer"]
    else:
        result, calls = measure(args.workload, args.seed, args.seconds, golden)
        wanted = spec["end_to_end"]
    failed = sum(not c["ok"] for c in calls)
    if args.trace and not result["counts_repeat"]:
        failed += 1
    produced = result["metrics"]
    metrics = {}
    for m in wanted:
        value, unit = produced.get(m["name"], (0, unit_of(m["name"])))
        if unit != m["unit"]:
            print(f"bench: {m['name']} is measured in {unit}, BENCHMARK.json says "
                  f"{m['unit']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": unit}

    print(f"workload {args.workload}: g2atomic {' '.join(WORKLOADS[args.workload])}"
          f"  (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print(f"env: sha {env['git_sha']}, src dirty {env['src_dirty']}, python "
          f"{env['python']}, nproc {env['nproc']}, load {env['loadavg_1m']:.2f}")
    notes = result["notes"]
    if "host_note" in result:
        print(f"  {result['host_note']}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<48} {failed / len(calls):>14.6g} 1      "
          f"{failed} of {len(calls)} calls")
    if result.get("absent"):
        print(f"  absent layers (reported as 0): {', '.join(result['absent'])}")
    for c in calls:
        if not c["ok"]:
            print(f"  FAILED {c['call']}: exit {c['exit_code']}, "
                  f"sha256 {c['sha256'][:12]}, stderr {c['stderr'][-200:]!r}")

    record = {"workload": args.workload, "argv": list(WORKLOADS[args.workload]),
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "attempted": len(calls), "failed": failed,
              "metrics": metrics, "all_metrics": {k: v[0] for k, v in produced.items()},
              "raw": result.get("raw"),
              "absent": result.get("absent", []), "calls": calls}
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
