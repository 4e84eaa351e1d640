"""Rendering of results as text, LaTeX and JSON, and the JSON inverse.

Text and LaTeX share one renderer driven by a style table; they differ
only in its entries: the exponent format, the separator between a
coefficient and its basis symbol, and the symbols with their level and
weight markup.  Both render polynomials by descending exponent; JSON
serializes by ascending exponent via polyq.to_pairs.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .combo import BasisLabel, Combination, parse_basis, sorted_support
from .lattice import Weight
from .polyq import Poly, from_pairs, to_pairs


class _Style(NamedTuple):
    power: tuple          # (before, after) the exponent e in q^e, e >= 2
    sep: str              # between a coefficient and its basis symbol
    symbols: dict         # basis kind -> symbol
    level: str            # level of a parametrized basis, formatted with it
    weight: str           # weight subscript, formatted with a and b


_STYLES = {
    "text": _Style(("q^", ""), " ",
                   {"canonical": "Hbar", "standard": "H", "atomic": "N",
                    "precanonical": "N", "adjusted": "Nt"},
                   "{}", "({},{})"),
    "latex": _Style(("q^{", "}"), " \\, ",
                    {"canonical": r"\underline{\mathbf{H}}",
                     "standard": r"\mathbf{H}", "atomic": r"\mathbf{N}",
                     "precanonical": r"\mathbf{N}",
                     "adjusted": r"\widetilde{\mathbf{N}}"},
                    "^{{{}}}", "_{{({},{})}}"),
}


def _signed(p: Poly, style: _Style):
    """Each monomial m of p as "+ m" or "- m", by descending exponent."""
    before, after = style.power
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            body = str(abs(c))
        else:
            qq = "q" if e == 1 else f"{before}{e}{after}"
            body = qq if c == 1 or c == -1 else f"{abs(c)}{qq}"
        yield f"- {body}" if c < 0 else f"+ {body}"


def _join(parts) -> str:
    """Join signed parts into a sum with no leading "+"; "0" when empty."""
    s = " ".join(parts)
    if not s:
        return "0"
    return s[2:] if s[0] == "+" else "-" + s[2:]


def _symbol(basis: BasisLabel, w: Weight, style: _Style) -> str:
    label = basis.normalized()
    level = "" if label.level is None else style.level.format(label.level)
    return style.symbols[label.kind] + level + style.weight.format(w[0], w[1])


def _term(p: Poly, symbol: str, style: _Style) -> str:
    """One signed term of a combination; a unit coefficient is omitted."""
    if len(p) == 1:
        (part,) = _signed(p, style)
        return part[:2] + symbol if part[2:] == "1" else f"{part}{style.sep}{symbol}"
    return f"+ ({_join(_signed(p, style))}){style.sep}{symbol}"


def render_poly(p: Poly, fmt: str) -> str:
    """A polynomial in text or LaTeX."""
    return _join(_signed(p, _STYLES[fmt]))


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
    style = _STYLES[fmt]
    rhs = _join(_term(x.terms[w], _symbol(x.basis, w, style), style) for w in order)
    return f"{_symbol(lhs_basis, lam, style)} = {rhs}"


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
