"""Run one g2atomic CLI call in this process, traced from outside the package.

Usage:
    python3 tracer.py SRC_DIR SUMMARY_JSON SPANS_JSON_GZ -- ARGV...

The package under SRC_DIR is imported unchanged.  Before the call, every
public layer function named in SPANNED is replaced by a span-recording
wrapper under each name that a g2atomic module binds it to (so
``precanonical.substitute`` and ``kostka.substitute`` are wrapped, not only
``combo.substitute``).  Spans (name, parent, start, end) stay in memory and
are written to SPANS_JSON_GZ after the call; SUMMARY_JSON gets the per-layer
aggregates.  Stdout is exactly the CLI's stdout and the exit code is the
CLI's exit code.

A layer that no longer exists under its name (a later refactor may remove
it) is listed under "absent" instead of failing the run.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import json
import os
import sys
import time

# (module, function) pairs that get a span.  kostka.verify is spanned only so
# that CheckResults built inside it are not taken for sweep checks.
SPANNED = (
    ("combo", "substitute"),
    ("lattice", "dominant_rep"),
    ("lattice", "dominant_below"),
    ("precanonical", "step_up"),
    ("precanonical", "defn_precanonical"),
    ("adjusted", "adjusted_expand_up"),
    ("kostka", "atomic_to_standard"),
    ("kostka", "canonical_to_standard"),
    ("kostka", "multiplicity_table"),
    ("kostka", "verify"),
    ("cli", "render_combination"),
)

# Memoized layers read through functools' cache_info().
MEMO_LAYERS = {
    "precanonical.layer3": ("precanonical", "_n3_atomic"),
    "precanonical.layer4": ("precanonical", "_n4_atomic"),
    "precanonical.layer5": ("precanonical", "_n5_atomic"),
    "precanonical.atomic": ("precanonical", "atomic"),
    "adjusted.layer2": ("adjusted", "adjusted2_in_atomic"),
    "adjusted.layer3": ("adjusted", "_t3_atomic"),
    "adjusted.layer4": ("adjusted", "_t4_atomic"),
    "adjusted.layer5": ("adjusted", "_t5_atomic"),
}


class Spans:
    """Columnar in-memory span store; one row per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def active(self, name: str) -> bool:
        if name not in self.names:
            return False
        nid = self.names.index(name)
        return any(self.name_id[i] == nid for i in self.stack)

    def aggregate(self) -> dict:
        """calls, inclusive and self seconds per span name.  Self time is the
        span's duration minus the durations of its direct children; calls
        are sequential in one thread, so children never overlap."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["incl_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def dump(self, path: str) -> None:
        obj = {"names": self.names, "clock": "perf_counter_ns",
               "name_id": self.name_id.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(obj, fh, separators=(",", ":"))


def _g2_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "g2atomic" or name.startswith("g2atomic."))]


def rebind(original, replacement) -> None:
    """Replace every module-level binding of original in the package."""
    for mod in _g2_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _lookup(modname: str, attr: str):
    try:
        mod = importlib.import_module(f"g2atomic.{modname}")
    except ImportError:
        return None
    return getattr(mod, attr, None)


def install(spans: Spans, absent: list[str]):
    """Install every wrapper; return (substitute counters, memo functions,
    check marks)."""
    memo = {}
    for layer, (modname, attr) in MEMO_LAYERS.items():
        fn = _lookup(modname, attr)
        if fn is None or not hasattr(fn, "cache_info"):
            absent.append(layer)
        else:
            memo[layer] = fn

    sub_counts = {"calls": 0, "updates": 0, "out_monomials": 0}
    for modname, attr in SPANNED:
        fn = _lookup(modname, attr)
        if fn is None:
            absent.append(f"{modname}.{attr}")
            continue
        inner = _counting_substitute(fn, sub_counts) if attr == "substitute" else fn
        rebind(fn, spans.wrap(f"{modname}.{attr}", inner))

    marks: list[tuple[float, str]] = []
    cls = _lookup("kostka", "CheckResult")
    if cls is None:
        absent.append("kostka.CheckResult")
    else:
        class CheckResult(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if not spans.active("kostka.verify"):
                    marks.append((time.perf_counter(), str(self.name)))

        CheckResult.__qualname__ = cls.__qualname__
        CheckResult.__module__ = cls.__module__
        rebind(cls, CheckResult)
    return sub_counts, memo, marks


def _counting_substitute(substitute, counts: dict):
    """substitute(x, expander, ...) with exact monomial-update counting.

    substitute performs one coefficient update per (exponent of x's
    polynomial at w) x (monomial of expander(w)), so the count is taken by
    wrapping the expander it is handed."""

    @functools.wraps(substitute)
    def counted(x, expander, *args, **kwargs):
        updates = 0

        def expand(w):
            nonlocal updates
            sub = expander(w)
            updates += len(x.terms[w]) * sum(map(len, sub.terms.values()))
            return sub

        out = substitute(x, expand, *args, **kwargs)
        counts["calls"] += 1
        counts["updates"] += updates
        counts["out_monomials"] += sum(map(len, out.terms.values()))
        return out

    return counted


def main(argv: list[str]) -> int:
    src, summary_path, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SRC_DIR SUMMARY_JSON SPANS_JSON_GZ -- ARGV...")
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import g2atomic.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"g2atomic was imported from {cli.__file__}, not {src}")

    spans = Spans()
    absent: list[str] = []
    sub_counts, memo, marks = install(spans, absent)

    t0 = time.perf_counter()
    code = cli.main(cli_argv)
    sys.stdout.flush()

    checks = {}
    prev = t0
    for t, name in marks:
        checks[name] = t - prev
        prev = t
    summary = {
        "exit_code": code,
        "spans": spans.aggregate(),
        "substitute": sub_counts,
        "memo": {layer: fn.cache_info()._asdict() for layer, fn in memo.items()},
        "checks": checks,
        "absent": absent,
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    spans.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
