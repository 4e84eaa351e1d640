"""Rendering of results as text, LaTeX and JSON.

Text and LaTeX share one renderer driven by a style table; they differ
only in its entries: the exponent format, the separator between a
coefficient and its basis symbol, and the symbols with their level and
weight markup.  Both render polynomials by descending exponent; JSON is
written directly, in json.dumps' layout, with pairs by ascending exponent.
A combination's line is also given lazily, one part per term, so that it
can be written while it is rendered and is never held whole.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .combo import BasisLabel, Combination, sorted_support
from .lattice import Weight
from .polyq import Poly


class _Style(NamedTuple):
    power: tuple          # (before, after) the exponent e in q^e, e >= 2
    sep: str              # between a coefficient and its basis symbol
    symbols: dict         # basis kind -> symbol
    level: str            # level of a parametrized basis, formatted with it
    weight: tuple         # (before, after) the weight's coordinates "a,b"


_STYLES = {
    "text": _Style(("q^", ""), " ",
                   {"canonical": "Hbar", "standard": "H", "atomic": "N",
                    "precanonical": "N", "adjusted": "Nt"},
                   "{}", ("(", ")")),
    "latex": _Style(("q^{", "}"), " \\, ",
                    {"canonical": r"\underline{\mathbf{H}}",
                     "standard": r"\mathbf{H}", "atomic": r"\mathbf{N}",
                     "precanonical": r"\mathbf{N}",
                     "adjusted": r"\widetilde{\mathbf{N}}"},
                    "^{{{}}}", ("_{(", ")}")),
}


class _Table(dict):
    """A dict that builds each missing value once, as make(key)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Monomials:
    """The pieces of the signed monomials of one rendering, each built once,
    on first use.  unit[e] is q^e: "+ q^7", "+ q", "+ 1".  Any other c*q^e
    is sign[c] + power[e]: "+ 2" + "q^7", "- " + "q", "+ 3" + ""; only -1
    at e = 0 comes out short, as "- ".  Whole monomials are kept for the
    unit coefficient alone, which fills atomic expansions: a Kostka-Foulkes
    column has so many distinct (e, c) that keeping them all would hold
    about a third of its monomials until the rendering ends."""

    def __init__(self, style: _Style):
        before, after = style.power
        self.power = _Table(lambda e: "" if e == 0 else "q" if e == 1
                            else f"{before}{e}{after}")
        self.sign = _Table(lambda c: ("- " if c < 0 else "+ ")
                           + ("" if c == 1 or c == -1 else str(abs(c))))
        self.unit = _Table(lambda e: "+ " + (self.power[e] or "1"))


def _lead(part: str) -> str:
    """The first signed part of a sum, with no leading "+"."""
    return part[2:] if part[0] == "+" else "-" + part[2:]


def _sum(p: Poly, mono: _Monomials) -> str:
    """p by descending exponent, with no leading "+"; "0" when p is zero."""
    unit, sign, power = mono.unit, mono.sign, mono.power
    parts = [unit[e] if p[e] == 1 else sign[p[e]] + power[e]
             for e in sorted(p, reverse=True)]
    if not parts:
        return "0"
    if parts[-1] == "- ":
        parts[-1] = "- 1"
    parts[0] = _lead(parts[0])
    return " ".join(parts)


def _symbol(basis: BasisLabel, style: _Style) -> tuple[str, str]:
    """The symbol of basis around its weight's coordinates: (before, after)."""
    level = "" if basis.level is None else style.level.format(basis.level)
    return style.symbols[basis.kind] + level + style.weight[0], style.weight[1]


def json_pairs(p: Poly) -> str:
    """p as a JSON list of [exponent, coefficient] pairs, ascending exponent."""
    return "[" + ", ".join([f"[{e}, {p[e]}]" for e in sorted(p)]) + "]"


def render_poly(p: Poly, fmt: str) -> str:
    """A polynomial in text or LaTeX."""
    return _sum(p, _Monomials(_STYLES[fmt]))


def combination_parts(x: Combination, lhs_basis: BasisLabel, lam: Weight,
                      fmt: str) -> Iterator[str]:
    """One-line equation: the element named by (lhs_basis, lam) expanded
    in the basis of x, support in display order.  In text and LaTeX a
    unit coefficient is omitted.  Given as parts, one per term, to be
    written in turn.  Lazy: nothing is rendered before the first part is
    asked for, and no part is kept after it is handed out."""
    order = sorted_support(x, first=lam)
    if fmt == "json":
        terms, sep = x.terms, ""
        yield (f'{{"basis": "{x.basis}", '
               f'"weight": [{lam[0]}, {lam[1]}], "terms": [')
        for w in order:
            yield (f'{sep}{{"weight": [{w[0]}, {w[1]}], '
                   f'"poly": {json_pairs(terms[w])}}}')
            sep = ", "
        yield "]}"
        return
    style = _STYLES[fmt]
    before, after = _symbol(lhs_basis, style)
    terms = _terms(x, order, style)
    first = next(terms, "+ 0")  # an empty sum reads 0
    yield f"{before}{lam[0]},{lam[1]}{after} = {_lead(first)}"
    for term in terms:
        yield " " + term


def _terms(x: Combination, order: list[Weight],
           style: _Style) -> Iterator[str]:
    """The term of x at each weight of order, signed: "+ q^2 N(1,0)"."""
    mono, sep, terms = _Monomials(style), style.sep, x.terms
    sign, power = mono.sign, mono.power
    before, after = _symbol(x.basis, style)
    for w in order:
        p = terms[w]
        if len(p) == 1:
            ((e, c),) = p.items()
            coeff = sign[c] + power[e]
            if len(coeff) > 2:  # a unit constant is its sign alone
                coeff += sep
        else:
            coeff = f"+ ({_sum(p, mono)}){sep}"
        yield f"{coeff}{before}{w[0]},{w[1]}{after}"

