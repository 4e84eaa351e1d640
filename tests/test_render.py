"""The one-pass renderer against the generator-based renderer it replaced,
the direct JSON writer against the json.dumps tree it replaced, and the
JSON inverse on malformed input."""

import json
import re

import pytest
from hypothesis import given, strategies as st

from g2atomic.combo import ATOMIC, BasisLabel, Combination, sorted_support
from g2atomic.render import (combination_from_json, json_pairs,
                             render_combination, render_poly)


# The renderer as it was before it built monomials from per-call tables,
# kept as the reference: its style table, _signed, _join, _symbol and _term.
_OLD_STYLES = {
    "text": (("q^", ""), " ",
             {"canonical": "Hbar", "standard": "H", "atomic": "N",
              "precanonical": "N", "adjusted": "Nt"},
             "{}", "({},{})"),
    "latex": (("q^{", "}"), " \\, ",
              {"canonical": r"\underline{\mathbf{H}}",
               "standard": r"\mathbf{H}", "atomic": r"\mathbf{N}",
               "precanonical": r"\mathbf{N}",
               "adjusted": r"\widetilde{\mathbf{N}}"},
              "^{{{}}}", "_{{({},{})}}"),
}


def _signed(p, style):
    before, after = style[0]
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            body = str(abs(c))
        else:
            qq = "q" if e == 1 else f"{before}{e}{after}"
            body = qq if c == 1 or c == -1 else f"{abs(c)}{qq}"
        yield f"- {body}" if c < 0 else f"+ {body}"


def _join(parts):
    s = " ".join(parts)
    if not s:
        return "0"
    return s[2:] if s[0] == "+" else "-" + s[2:]


def _symbol(basis, w, style):
    level = "" if basis.level is None else style[3].format(basis.level)
    return style[2][basis.kind] + level + style[4].format(w[0], w[1])


def _term(p, symbol, style):
    if len(p) == 1:
        (part,) = _signed(p, style)
        return part[:2] + symbol if part[2:] == "1" else f"{part}{style[1]}{symbol}"
    return f"+ ({_join(_signed(p, style))}){style[1]}{symbol}"


def _old_render(x, lhs_basis, lam, fmt, order):
    style = _OLD_STYLES[fmt]
    rhs = _join(_term(x.terms[w], _symbol(x.basis, w, style), style) for w in order)
    return f"{_symbol(lhs_basis, lam, style)} = {rhs}"


_labels = st.one_of(
    st.sampled_from([BasisLabel(k) for k in ("canonical", "standard", "atomic")]),
    st.builds(BasisLabel, st.sampled_from(["precanonical", "adjusted"]),
              st.integers(2, 6)))
# Signed, unit and non-unit coefficients at exponents 0, 1 and larger.
_polys = st.dictionaries(st.integers(0, 14),
                         st.sampled_from([1, -1, 2, -2, 3, -7, 12, -100]),
                         min_size=1, max_size=5)
_weights = st.tuples(st.integers(0, 12), st.integers(0, 12))


@given(_labels, _labels, _weights, st.one_of(st.none(), _polys),
       st.dictionaries(_weights, _polys, max_size=12),
       st.sampled_from(["text", "latex"]))
def test_render_combination_matches_old_renderer(basis, lhs_basis, lam, at_lam,
                                                 terms, fmt):
    # at_lam, when drawn, puts the designated weight in the support.
    if at_lam is not None:
        terms[lam] = at_lam
    x = Combination(basis, terms)
    want = _old_render(x, lhs_basis, lam, fmt, sorted_support(x, first=lam))
    assert render_combination(x, lhs_basis, lam, fmt) == want


# The JSON writer as it was before it wrote the line directly, kept as the
# reference: an object tree of [exponent, coefficient] lists for json.dumps.

def _old_pairs(p):
    return [[e, p[e]] for e in sorted(p)]


def _old_json(x, lam, order):
    return json.dumps({
        "basis": str(x.basis),
        "weight": [lam[0], lam[1]],
        "terms": [{"weight": [w[0], w[1]], "poly": _old_pairs(x.terms[w])}
                  for w in order],
    })


@given(_labels, _labels, _weights, st.one_of(st.none(), _polys),
       st.dictionaries(_weights, _polys, max_size=12))
def test_render_json_matches_old_writer(basis, lhs_basis, lam, at_lam, terms):
    if at_lam is not None:
        terms[lam] = at_lam
    x = Combination(basis, terms)
    want = _old_json(x, lam, sorted_support(x, first=lam))
    assert render_combination(x, lhs_basis, lam, "json") == want


@given(st.dictionaries(st.integers(0, 40), st.integers(-10**20, 10**20).filter(bool),
                       max_size=6))
def test_json_pairs_matches_json_dumps(p):
    assert json_pairs(p) == json.dumps(_old_pairs(p))


@given(st.dictionaries(st.integers(0, 14), st.integers(-20, 20).filter(bool),
                       max_size=6),
       st.sampled_from(["text", "latex"]))
def test_render_poly_matches_old_renderer(p, fmt):
    assert render_poly(p, fmt) == _join(_signed(p, _OLD_STYLES[fmt]))


def test_render_poly_zero_and_negative_lead():
    for fmt in ("text", "latex"):
        assert render_poly({}, fmt) == "0"
        for p in ({3: -1, 0: 2}, {0: -1}, {1: -4, 0: -1}, {5: -2, 2: 1, 1: -1}):
            assert render_poly(p, fmt) == _join(_signed(p, _OLD_STYLES[fmt]))
    assert render_poly({3: -1, 0: 2}, "text") == "-q^3 + 2"
    assert render_poly({1: -4, 0: -1}, "latex") == "-4q - 1"


def _serialized(weight=(2, 1), term_weight=(1, 1), poly=((0, 1),)):
    return {"basis": "atomic", "weight": list(weight),
            "terms": [{"weight": list(term_weight), "poly": [list(e) for e in poly]}]}


def test_combination_from_json_rejects_malformed():
    x, lam = combination_from_json(_serialized())
    assert (x, lam) == (Combination(ATOMIC, {(1, 1): {0: 1}}), (2, 1))
    for obj in [
        _serialized(poly=[(1.5, 2.9)]),      # floats are not truncated
        _serialized(poly=[(1, 2.0)]),
        _serialized(poly=[("7", 1)]),        # nor strings parsed
        _serialized(poly=[(1, True)]),       # nor bools read as ints
        _serialized(poly=[(1, 0)]),
        _serialized(poly=[(1, 2), (1, 3)]),
        _serialized(poly=[(1, 2, 3)]),
        _serialized(term_weight=(1.9, 0)),
        _serialized(term_weight=("7", 0)),
        _serialized(term_weight=(True, 0)),
        _serialized(term_weight=(-3, 0)),    # not dominant
        _serialized(term_weight=(1, 2, 3)),
        _serialized(weight=(0, -1)),
        _serialized(weight=(2.0, 1)),
        {"basis": "atomic", "weight": [2, 1], "terms": [{"weight": [1, 1]}]},
        {"basis": "borel", "weight": [2, 1], "terms": []},
        {"basis": "adjusted( 4)", "weight": [2, 1], "terms": []},
        {"basis": 7, "weight": [2, 1], "terms": []},
        {"weight": [2, 1], "terms": []},
        {"basis": "atomic", "weight": 5, "terms": []},
        [],
    ]:
        with pytest.raises(ValueError):
            combination_from_json(obj)


@pytest.mark.parametrize("obj, message", [
    (_serialized(weight=(1, 2, 3)), "serialized weight [1, 2, 3] is not two ints"),
    (_serialized(weight=(4,)), "serialized weight [4] is not two ints"),
    (_serialized(term_weight=(1, 1, 0)), "serialized weight [1, 1, 0] is not two ints"),
    (_serialized(poly=[(0, 1, 2)]), "serialized pair [0, 1, 2] is not two ints"),
    (_serialized(poly=[(0,)]), "serialized pair [0] is not two ints"),
    (_serialized(poly=[]), "empty poly at (1, 1)"),
])
def test_combination_from_json_names_the_bad_field(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        combination_from_json(obj)
