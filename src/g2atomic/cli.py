"""Command line interface.

Subcommands:

    atomic <a> <b>        atomic expansion of the canonical element
    kf <a> <b> <c> <d>    generalized Kostka-Foulkes polynomial
    standard <a> <b>      canonical element in the standard basis
    expand --level <i> <a> <b>
                          definitional expansion of the level-i element
    verify [--max-a A] [--max-b B]
                          run every invariant over a sweep (defaults 8)

Each subcommand takes --format text|json|latex.  Exit codes: 0 success,
1 usage or domain error, 2 verification failure.  Output is deterministic:
same argv, byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from functools import cache

from .lattice import (Weight, dominant_box, dominance_leq, x_I_member,
                      x_I_member_closed)
from .polyq import Poly, poly_add, poly_sub, to_pairs, from_pairs
from .combo import (Combination, BasisLabel, CANONICAL, parse_basis,
                    pre_canonical, sorted_support, substitute)
from . import precanonical
from . import adjusted as adjusted_mod
from . import kostka

_FORMATS = ("text", "json", "latex")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here
    # reserves 2 for verification failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="g2atomic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=_FORMATS, default="text")
        return p

    p = add("atomic", "atomic expansion of the canonical element at (a, b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--method", choices=("adjusted", "precanonical"),
                   default="adjusted",
                   help="which of the two equivalent pipelines to run; the "
                        "positive adjusted route is the default, the "
                        "pre-canonical route its oracle")
    p.add_argument("--cache", metavar="PATH",
                   help="JSON cache of expansions, keyed 'a,b'; validated on "
                        "load by recomputing one entry")

    p = add("kf", "Kostka-Foulkes polynomial for lambda=(a, b), mu=(c, d)")
    for name in ("a", "b", "c", "d"):
        p.add_argument(name, type=int)

    p = add("standard", "canonical element at (a, b) in the standard basis")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("expand", "definitional expansion of the level-i element at (a, b)")
    p.add_argument("--level", type=int, required=True, metavar="I",
                   help="level in 2..6")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("verify", "run every invariant over a dominant-weight sweep")
    p.add_argument("--max-a", type=int, default=8)
    p.add_argument("--max-b", type=int, default=8)
    return parser


# Rendering.  Text and latex render polynomials by descending exponent;
# JSON serializes by ascending exponent via polyq.to_pairs.

def poly_text(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qq = "q" if e == 1 else f"q^{e}"
            body = qq if mag == 1 else f"{mag}{qq}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_latex(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qq = "q" if e == 1 else f"q^{{{e}}}"
            body = qq if mag == 1 else f"{mag}{qq}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _symbol_text(basis: BasisLabel, w: Weight) -> str:
    kind = basis.normalized().kind
    level = basis.normalized().level
    core = {"canonical": "Hbar", "standard": "H", "atomic": "N"}.get(kind)
    if core is None:
        core = f"N{level}" if kind == "precanonical" else f"Nt{level}"
    return f"{core}({w[0]},{w[1]})"


def _symbol_latex(basis: BasisLabel, w: Weight) -> str:
    kind = basis.normalized().kind
    level = basis.normalized().level
    sub = f"_{{({w[0]},{w[1]})}}"
    if kind == "canonical":
        return r"\underline{\mathbf{H}}" + sub
    if kind == "standard":
        return r"\mathbf{H}" + sub
    if kind == "atomic":
        return r"\mathbf{N}" + sub
    if kind == "precanonical":
        return r"\mathbf{N}" + f"^{{{level}}}" + sub
    return r"\widetilde{\mathbf{N}}" + f"^{{{level}}}" + sub


def _term_text(p: Poly, symbol: str) -> tuple[str, str]:
    """(sign, body) for one rendered term."""
    if len(p) == 1:
        ((e, c),) = p.items()
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        if e == 0:
            coeff = "" if mag == 1 else f"{mag} "
        else:
            qq = "q" if e == 1 else f"q^{e}"
            coeff = f"{qq} " if mag == 1 else f"{mag}{qq} "
        return sign, f"{coeff}{symbol}"
    return "+", f"({poly_text(p)}) {symbol}"


def _term_latex(p: Poly, symbol: str) -> tuple[str, str]:
    if len(p) == 1:
        ((e, c),) = p.items()
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        if e == 0:
            coeff = "" if mag == 1 else f"{mag} \\, "
        else:
            qq = "q" if e == 1 else f"q^{{{e}}}"
            coeff = f"{qq} \\, " if mag == 1 else f"{mag}{qq} \\, "
        return sign, f"{coeff}{symbol}"
    return "+", f"({poly_latex(p)}) \\, {symbol}"


def _join_terms(parts: list[tuple[str, str]]) -> str:
    out = []
    for i, (sign, body) in enumerate(parts):
        if i == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out) if out else "0"


def render_combination(x: Combination, lhs_basis: BasisLabel, lam: Weight,
                       fmt: str) -> str:
    """One-line equation: the element named by (lhs_basis, lam) expanded
    in the basis of x, support in display order."""
    order = sorted_support(x, first=lam)
    if fmt == "json":
        obj = {
            "basis": str(x.basis.normalized()),
            "weight": [lam[0], lam[1]],
            "terms": [{"weight": [w[0], w[1]], "poly": to_pairs(x.terms[w])}
                      for w in order],
        }
        return json.dumps(obj)
    if fmt == "latex":
        lhs = _symbol_latex(lhs_basis, lam)
        parts = [_term_latex(x.terms[w], _symbol_latex(x.basis, w)) for w in order]
        return f"{lhs} = {_join_terms(parts)}"
    lhs = _symbol_text(lhs_basis, lam)
    parts = [_term_text(x.terms[w], _symbol_text(x.basis, w)) for w in order]
    return f"{lhs} = {_join_terms(parts)}"


def combination_from_json(obj) -> tuple[Combination, Weight]:
    """Inverse of the JSON rendering; returns the combination and the
    designated weight.  Malformed input raises ValueError."""
    try:
        basis = parse_basis(obj["basis"])
        lam = (int(obj["weight"][0]), int(obj["weight"][1]))
        terms = {}
        for entry in obj["terms"]:
            w = (int(entry["weight"][0]), int(entry["weight"][1]))
            if w in terms:
                raise ValueError(f"duplicate weight {w!r} in serialized combination")
            terms[w] = from_pairs(entry["poly"])
    except (AttributeError, KeyError, IndexError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed serialized combination: {exc!r}") from None
    return Combination(basis, terms), lam


# Expansion cache for the atomic subcommand.  A cache file maps "a,b" keys
# to rendered JSON objects.  On load, one deterministically chosen entry
# (seeded by the file bytes) is recomputed and compared.

def _load_cache(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return {}
    data = json.loads(raw.decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError("cache root must be a JSON object")
    if data:
        keys = sorted(data)
        seed = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
        probe = keys[random.Random(seed).randrange(len(keys))]
        x, lam = combination_from_json(data[probe])
        a, b = (int(s) for s in probe.split(","))
        if (a, b) != lam:
            raise ValueError(f"cache key {probe!r} does not match its weight")
        if adjusted_mod.atomic_second(lam) != x:
            raise ValueError(f"cache entry {probe!r} fails revalidation")
    return data


def _atomic_command(args) -> tuple[int, str]:
    lam = (args.a, args.b)
    route = (precanonical.atomic if args.method == "precanonical"
             else adjusted_mod.atomic_second)
    if args.cache:
        key = f"{lam[0]},{lam[1]}"
        try:
            data = _load_cache(args.cache)
            x = combination_from_json(data[key])[0] if key in data else None
        except ValueError as exc:
            return 1, f"error: invalid cache file: {exc}"
        if x is None:
            x = route(lam)
            data[key] = json.loads(render_combination(x, CANONICAL, lam, "json"))
            with open(args.cache, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
                fh.write("\n")
    else:
        x = route(lam)
    return 0, render_combination(x, CANONICAL, lam, args.format)


def _kf_command(args) -> tuple[int, str]:
    lam, mu = (args.a, args.b), (args.c, args.d)
    p = kostka.kostka_foulkes(lam, mu)
    if args.format == "json":
        obj = {"lambda": [lam[0], lam[1]], "mu": [mu[0], mu[1]],
               "poly": to_pairs(p)}
        return 0, json.dumps(obj)
    if args.format == "latex":
        return 0, poly_latex(p)
    return 0, poly_text(p)


def _standard_command(args) -> tuple[int, str]:
    lam = (args.a, args.b)
    x = kostka.canonical_to_standard(lam)
    return 0, render_combination(x, CANONICAL, lam, args.format)


def _expand_command(args) -> tuple[int, str]:
    lam = (args.a, args.b)
    if not 2 <= args.level <= 6:
        return 1, "error: --level must be in 2..6"
    x = precanonical.defn_precanonical(args.level, lam)
    return 0, render_combination(x, pre_canonical(args.level), lam, args.format)


# Verification sweep.  Quadratic-cost oracle checks (classical multiplicity
# comparison and shift monotonicity) are capped at coordinate 6 so the
# default sweep stays quick; everything else honors the requested bounds.

def _sweep(max_a: int, max_b: int) -> list[kostka.CheckResult]:
    checks: list[kostka.CheckResult] = []
    box = dominant_box(max_a, max_b)
    small = dominant_box(min(max_a, 6), min(max_b, 6))

    def run(name, fn):
        try:
            detail = fn()
            checks.append(kostka.CheckResult(name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            checks.append(kostka.CheckResult(name, False, str(exc)))

    def step_roundtrips():
        for lam in box:
            for i in (2, 3, 4, 5):
                f = substitute(precanonical.inverse_step(i, lam),
                               lambda w: precanonical.step_up(i, w))
                g = substitute(precanonical.step_up(i, lam),
                               lambda w: precanonical.inverse_step(i, w))
                if f.terms != {lam: {0: 1}} or g.terms != {lam: {0: 1}}:
                    raise AssertionError(f"level {i} round trip fails at {lam!r}")
        return f"{len(box)} weights x 4 levels"

    def closed_forms():
        for lam in box:
            if precanonical.closed_form("6to5", lam) != precanonical.step_up(5, lam):
                raise AssertionError(f"6to5 disagrees at {lam!r}")
            if precanonical.closed_form("3to2", lam) != precanonical.step_up(2, lam):
                raise AssertionError(f"3to2 disagrees at {lam!r}")
            if precanonical.closed_form("4to3", lam) != precanonical.step_up(3, lam):
                raise AssertionError(f"4to3 disagrees at {lam!r}")
            p4, p3 = precanonical.closed_form("5to4", lam)
            lhs = substitute(precanonical.step_up(4, lam),
                             lambda w: precanonical.step_up(3, w),
                             basis=pre_canonical(3))
            rhs = substitute(p4, lambda w: precanonical.step_up(3, w),
                             basis=pre_canonical(3))
            merged = {w: dict(p) for w, p in rhs.terms.items()}
            for w, p in p3.terms.items():
                s = poly_add(merged.get(w, {}), p)
                if s:
                    merged[w] = s
                else:
                    merged.pop(w, None)
            if lhs.terms != merged:
                raise AssertionError(f"5to4 disagrees at {lam!r}")
        return f"{len(box)} weights"

    def definitional_consistency():
        for lam in box:
            for i in (2, 3, 4, 5):
                via = substitute(precanonical.inverse_step(i, lam),
                                 lambda w: precanonical.defn_precanonical(i + 1, w),
                                 basis=CANONICAL)
                if via != precanonical.defn_precanonical(i, lam):
                    raise AssertionError(f"level {i} definition disagrees at {lam!r}")
        return f"{len(box)} weights x 4 levels"

    def definitional_roundtrip():
        # Supports overlap heavily across the box, so expand each weight
        # once; the memo is local and freed when the check returns.
        expand = cache(lambda w: precanonical.defn_precanonical(2, w))
        for lam in box:
            back = substitute(adjusted_mod.atomic_second(lam), expand)
            if back.terms != {lam: {0: 1}}:
                raise AssertionError(f"round trip fails at {lam!r}")
        return f"{len(box)} weights"

    def positivity():
        for lam in box:
            adjusted_mod.atomic_second(lam)  # raises internally on violation
        return f"{len(box)} weights"

    def even_column_closed_form():
        for m in range(0, min(max_b, 12) // 2 + 1):
            want: dict = {}
            for i in range(m + 1):
                want[(0, 2 * m - 2 * i)] = {4 * i: 1}
            for i in range(1, m + 1):
                for j in range(1, 2 * m - 2 * i + 2):
                    w = (j + 1, 2 * m - 2 * i - j + 1)
                    want.setdefault(w, {})
                    want[w][4 * i + j - 3] = want[w].get(4 * i + j - 3, 0) + 1
            got = substitute(precanonical.step_up(4, (0, 2 * m)),
                             lambda u: substitute(
                                 precanonical.step_up(3, u),
                                 lambda v: precanonical.step_up(2, v),
                                 basis=pre_canonical(2)),
                             basis=pre_canonical(2))
            if got.terms != want:
                raise AssertionError(f"even-column closed form fails at m={m}")
        return f"m <= {min(max_b, 12) // 2}"

    def adjusted_roundtrips():
        for lam in box:
            for k in (2, 3, 4, 5):
                f = substitute(adjusted_mod.adjusted_step_down(k, lam),
                               lambda w: adjusted_mod.adjusted_expand_up(k, w))
                g = substitute(adjusted_mod.adjusted_expand_up(k, lam),
                               lambda w: adjusted_mod.adjusted_step_down(k, w))
                if f.terms != {lam: {0: 1}} or g.terms != {lam: {0: 1}}:
                    raise AssertionError(f"level {k} round trip fails at {lam!r}")
        return f"{len(box)} weights x 4 levels"

    def adjusted_canonical_consistency():
        for lam in box:
            for k in (2, 3, 4, 5):
                via = substitute(adjusted_mod.adjusted_step_down(k, lam),
                                 lambda w: adjusted_mod.adjusted_in_canonical(k + 1, w),
                                 basis=CANONICAL)
                if via != adjusted_mod.adjusted_in_canonical(k, lam):
                    raise AssertionError(f"level {k} canonical expansion "
                                         f"disagrees at {lam!r}")
        return f"{len(box)} weights x 4 levels"

    def adjusted2_consistency():
        for lam in box:
            via = substitute(adjusted_mod.adjusted_in_canonical(2, lam),
                             lambda w: precanonical.atomic(w))
            if via != adjusted_mod.adjusted2_in_atomic(lam):
                raise AssertionError(f"level-2 atomic expansion disagrees at {lam!r}")
        return f"{len(box)} weights"

    def correction_identity():
        # the level-2 adjusted element minus the atomic element, in the
        # atomic basis, case split on the indexing weight
        for lam in box:
            a, b = lam
            diff = dict(adjusted_mod.adjusted2_in_atomic(lam).terms)
            cur = poly_sub(diff.get(lam, {}), {0: 1})
            if cur:
                diff[lam] = cur
            else:
                diff.pop(lam, None)
            if a >= 3 or a + b < 2:
                want: dict = {}
            elif a == 2:
                want = {w: {e + 2: c for e, c in p.items()}
                        for w, p in adjusted_mod.adjusted2_in_atomic((0, b)).terms.items()}
            elif a == 1:
                want = {w: {e + 2: c for e, c in p.items()}
                        for w, p in adjusted_mod.adjusted2_in_atomic((1, b - 1)).terms.items()}
                for k in range(1, b + 1):
                    w = (1 + k, b - k)
                    want.setdefault(w, {})
                    want[w][k] = want[w].get(k, 0) + 1
            else:
                want = {w: {e + 4: c for e, c in p.items()}
                        for w, p in adjusted_mod.adjusted2_in_atomic((0, b - 2)).terms.items()}
                for k in range(2, b + 1):
                    w = (k, b - k)
                    want.setdefault(w, {})
                    want[w][k] = want[w].get(k, 0) + 1
            if diff != want:
                raise AssertionError(f"correction identity fails at {lam!r}")
        return f"{len(box)} weights"

    def cross_approach():
        for lam in box:
            if adjusted_mod.atomic_second(lam) != precanonical.atomic(lam):
                raise AssertionError(f"routes disagree at {lam!r}")
        return f"{len(box)} weights"

    def table_equivalence():
        subsets = [tuple(i for i in (2, 3, 4, 5) if m & (1 << (i - 2)))
                   for m in range(16)]
        for lam in box:
            for I in subsets:
                if x_I_member(I, lam) != x_I_member_closed(I, lam):
                    raise AssertionError(f"membership tables disagree for "
                                         f"{I!r} at {lam!r}")
        return f"{len(box)} weights x 16 subsets"

    def kf_consistency():
        for lam in small:
            table = kostka.canonical_to_standard(lam).terms
            for mu in small:
                got = kostka.kostka_foulkes(lam, mu)
                want = table.get(mu, {}) if dominance_leq(mu, lam) else {}
                if got != want:
                    raise AssertionError(f"two KF paths disagree at {lam!r}, {mu!r}")
        return f"{len(small)}^2 pairs"

    def kf_at_one():
        for lam in small:
            table = kostka.multiplicity_table(lam)
            kf = kostka.canonical_to_standard(lam).terms
            for mu, p in kf.items():
                if sum(p.values()) != table.get(mu, 0):
                    raise AssertionError(f"q=1 disagrees at {lam!r}, {mu!r}")
            if kostka.weyl_dimension(lam) != kostka.dimension_by_orbits(lam):
                raise AssertionError(f"dimension mismatch at {lam!r}")
        return f"{len(small)} weights"

    def monic_and_monotone():
        for lam in small:
            rep = kostka.verify(lam)
            for c in rep.checks:
                if c.name in ("monic-degree", "shift-monotonicity") and not c.ok:
                    raise AssertionError(f"{c.name} fails at {lam!r}: {c.detail}")
        return f"{len(small)} weights"

    run("precanonical.step-roundtrips", step_roundtrips)
    run("precanonical.closed-forms", closed_forms)
    run("precanonical.definitional-consistency", definitional_consistency)
    run("precanonical.definitional-roundtrip", definitional_roundtrip)
    run("precanonical.positivity", positivity)
    run("precanonical.even-column-closed-form", even_column_closed_form)
    run("adjusted.step-roundtrips", adjusted_roundtrips)
    run("adjusted.canonical-consistency", adjusted_canonical_consistency)
    run("adjusted.atomic-consistency", adjusted2_consistency)
    run("adjusted.correction-identity", correction_identity)
    run("adjusted.cross-approach", cross_approach)
    run("lattice.membership-tables", table_equivalence)
    run("kostka.two-paths", kf_consistency)
    run("kostka.at-one-vs-freudenthal", kf_at_one)
    run("kostka.monic-and-monotone", monic_and_monotone)
    return checks


def _verify_command(args) -> tuple[int, str]:
    if args.max_a < 0 or args.max_b < 0:
        return 1, "error: sweep bounds must be non-negative"
    checks = _sweep(args.max_a, args.max_b)
    ok = all(c.ok for c in checks)
    if args.format == "json":
        obj = {"max_a": args.max_a, "max_b": args.max_b,
               "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                          for c in checks],
               "ok": ok}
        return (0 if ok else 2), json.dumps(obj)
    lines = []
    for c in checks:
        mark = "ok  " if c.ok else "FAIL"
        tail = f" ({c.detail})" if c.detail else ""
        lines.append(f"{mark} {c.name}{tail}")
    lines.append(f"{'all checks passed' if ok else 'VERIFICATION FAILED'} "
                 f"(sweep a <= {args.max_a}, b <= {args.max_b})")
    return (0 if ok else 2), "\n".join(lines)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "verify":
            code, out = _verify_command(args)
        else:
            for name in ("a", "b", "c", "d"):
                v = getattr(args, name, None)
                if v is not None and v < 0:
                    print(f"error: coordinates must be non-negative, got {v}",
                          file=sys.stderr)
                    return 1
            if args.command == "atomic":
                code, out = _atomic_command(args)
            elif args.command == "kf":
                code, out = _kf_command(args)
            elif args.command == "standard":
                code, out = _standard_command(args)
            else:
                code, out = _expand_command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 0 or args.command == "verify":
        print(out)
    else:
        print(out, file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
