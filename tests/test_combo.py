"""Basis labels, combination arithmetic, substitution, display order."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import random
import re
from functools import cache

import pytest
from hypothesis import example, given, strategies as st

import g2atomic
from g2atomic import adjusted, combo, precanonical
from g2atomic.adjusted import adjusted2_in_atomic
from g2atomic.adjusted import adjusted_expand_up
from g2atomic.combo import (ATOMIC, CANONICAL, STANDARD, BasisLabel,
                            Combination, adjusted_label, combo_add,
                            display_key, pre_canonical,
                            push, relation, single,
                            sorted_support, substitute, walk)
from g2atomic.lattice import GAMMA, X_SINGLE, dominant_box, is_dominant
from g2atomic.polyq import Poly
from g2atomic.precanonical import atomic, step_up

from reference_data import REF_ORDER_24
from test_polyq import poly_add, poly_mul, poly_scale_qpow


# Combination helpers that only the tests need.

def combo_scale(p: Poly, x: Combination) -> Combination:
    if not p:
        return Combination(x.basis, {})
    return Combination(x.basis, {w: poly_mul(p, r) for w, r in x.terms.items()})


def validate(x: Combination) -> None:
    """Assert the representation invariants (dominant keys, canonical
    nonzero polynomials)."""
    for w, p in x.terms.items():
        assert is_dominant(w), f"non-dominant key {w!r}"
        assert p, f"zero polynomial stored at {w!r}"
        assert all(c != 0 for c in p.values()), f"zero coefficient at {w!r}"


def test_label_validation():
    with pytest.raises(ValueError):
        BasisLabel("nonsense")
    with pytest.raises(ValueError):
        pre_canonical(7)
    with pytest.raises(ValueError):
        adjusted_label(1)
    with pytest.raises(ValueError):
        BasisLabel("canonical", 3)


def test_level6_normalization():
    assert pre_canonical(6) == CANONICAL
    assert adjusted_label(6) == CANONICAL
    assert pre_canonical(6) == adjusted_label(6)
    assert pre_canonical(5) != CANONICAL
    assert pre_canonical(2) != ATOMIC
    assert adjusted_label(2) != pre_canonical(2)
    assert BasisLabel("precanonical", 6) is CANONICAL is adjusted_label(6)
    x = Combination(pre_canonical(6), {(1, 0): {0: 1}})
    y = Combination(CANONICAL, {(1, 0): {0: 1}})
    assert x == y


ALL_LABELS = [CANONICAL, STANDARD, ATOMIC,
              *(pre_canonical(i) for i in (2, 3, 4, 5)),
              *(adjusted_label(k) for k in (2, 3, 4, 5))]


def test_label_strings_roundtrip():
    # the JSON "basis" field is str(label), so it names one basis only
    assert len(set(map(str, ALL_LABELS))) == 11


def test_value_semantics():
    # Labels are immutable, one object per basis, usable as dict keys, and
    # kept by copy and pickle; combinations compare by value and are
    # unhashable; both read back from their repr.
    label = BasisLabel("precanonical", 3)
    assert label is pre_canonical(3) and hash(label) == hash(pre_canonical(3))
    assert label != BasisLabel("adjusted", 3) and label != ("precanonical", 3)
    assert {label: 1}[BasisLabel("precanonical", 3)] == 1
    with pytest.raises(AttributeError):
        label.level = 4
    with pytest.raises(AttributeError):
        del label.kind
    for each in ALL_LABELS:
        assert copy.deepcopy(each) is each and copy.copy(each) is each
        assert pickle.loads(pickle.dumps(each)) is each
        assert eval(repr(each)) is each
    x = Combination(ATOMIC, {(1, 0): {0: 1}})
    assert repr(x) == ("Combination(basis=BasisLabel(kind='atomic', level=None), "
                       "terms={(1, 0): {0: 1}})")
    assert eval(repr(x)) == x and Combination(ATOMIC).terms == {}
    with pytest.raises(TypeError):
        hash(x)


def test_combo_add_examples():
    lam = (1, 1)
    assert combo_add(single(CANONICAL, lam), single(CANONICAL, lam, {0: -1})) \
        == Combination(CANONICAL)
    two = combo_add(single(STANDARD, (2, 0)), single(STANDARD, (1, 0), {1: 1}))
    assert two.terms == {(2, 0): {0: 1}, (1, 0): {1: 1}}
    # cancelling where y meets x, and leaving both as they were
    x = Combination(STANDARD, {(2, 0): {0: 1}, (1, 0): {3: 2}})
    y = Combination(STANDARD, {(1, 0): {3: -2}, (0, 0): {0: 1, 2: 1}})
    assert combo_add(x, y).terms == {(2, 0): {0: 1}, (0, 0): {0: 1, 2: 1}}
    assert x.terms == {(2, 0): {0: 1}, (1, 0): {3: 2}}
    assert y.terms == {(1, 0): {3: -2}, (0, 0): {0: 1, 2: 1}}
    with pytest.raises(ValueError):
        combo_add(single(CANONICAL, lam), single(ATOMIC, lam))


def test_combo_scale_example():
    x = single(ATOMIC, (1, 0), {0: 1, 1: 1})
    assert combo_scale({1: 1}, x).terms == {(1, 0): {1: 1, 2: 1}}
    assert combo_scale({}, x) == Combination(ATOMIC)


def test_single_rejects_nondominant():
    with pytest.raises(ValueError):
        single(CANONICAL, (-1, 2))


def test_substitute_identity_and_empty():
    x = Combination(CANONICAL, {(2, 0): {0: 1}, (0, 1): {1: 3}})
    ident = substitute(x, lambda w: single(CANONICAL, w))
    assert ident == x
    assert substitute(Combination(CANONICAL), lambda w: single(ATOMIC, w),
                      basis=ATOMIC) == Combination(ATOMIC)
    with pytest.raises(ValueError):
        substitute(Combination(CANONICAL), lambda w: single(ATOMIC, w))


def test_substitute_checks_expander_bases():
    x = Combination(CANONICAL, {(2, 0): {0: 1}, (0, 1): {1: 3}})

    def mixed(w):
        return single(ATOMIC if w == (2, 0) else STANDARD, w)

    with pytest.raises(ValueError):
        substitute(x, mixed)


def test_substitute_is_linear():
    def expander(w):
        a, b = w
        out = {(a, b): {1: 1}}
        if a:
            out[(a - 1, b)] = {0: 2, 2: -1}
        return Combination(STANDARD, out)

    xs = [Combination(CANONICAL, {(2, 0): {0: 1}, (1, 1): {1: -2}}),
          Combination(CANONICAL, {(1, 1): {1: 2}, (0, 0): {3: 5}}),
          Combination(CANONICAL, {(2, 0): {2: 1}})]
    for x in xs:
        for y in xs:
            lhs = substitute(combo_add(x, y), expander, basis=STANDARD)
            rhs = combo_add(substitute(x, expander, basis=STANDARD),
                            substitute(y, expander, basis=STANDARD))
            assert lhs == rhs
        p = {0: 2, 1: -1}
        assert substitute(combo_scale(p, x), expander, basis=STANDARD) \
            == combo_scale(p, substitute(x, expander, basis=STANDARD))


# Inputs to substitute: monomials and multi-term polynomials, coefficients
# +-1 and others, exponent 0 among the shifts.
_BOX = dominant_box(1, 1)
_polys = st.dictionaries(st.integers(0, 3), st.sampled_from([1, -1, 2, -3]),
                         min_size=1, max_size=3)
_combos = st.dictionaries(st.sampled_from(_BOX), _polys, max_size=4)
_tables = st.fixed_dictionaries(
    {w: st.dictionaries(st.sampled_from(_BOX), _polys, max_size=4) for w in _BOX})


def _substitute_reference(terms, table):
    acc = {}
    for w, p in terms.items():
        for u, r in table[w].items():
            acc[u] = poly_add(acc.get(u, {}), poly_mul(p, r))
    return {u: r for u, r in acc.items() if r}


@given(_combos, _tables)
def test_substitute_matches_reference(terms, table):
    snapshot = copy.deepcopy((terms, table))
    expander = cache(lambda w: Combination(STANDARD, table[w]))
    out = substitute(Combination(CANONICAL, terms), expander, basis=STANDARD)
    assert out.basis == STANDARD
    assert out.terms == _substitute_reference(terms, table)
    validate(out)
    # neither x nor the memoized expander outputs were touched
    assert (terms, table) == snapshot
    # a second expansion over the same memo still sees the original outputs
    again = substitute(Combination(CANONICAL, terms), expander, basis=STANDARD)
    assert again == out


@given(_combos, _tables)
def test_substitute_cancels_to_empty(terms, table):
    # x plus its negation at twin weights with the same expansions
    twins = {(a + 10, b): {e: -c for e, c in p.items()} for (a, b), p in terms.items()}
    x = Combination(CANONICAL, {**terms, **twins})
    out = substitute(x, lambda w: Combination(STANDARD, table[(w[0] % 10, w[1])]),
                     basis=STANDARD)
    assert out.terms == {}


def test_substitute_never_aliases_expander_output():
    # Shift 0 and coefficient 1 copy the expander's polynomial for a target
    # seen first; later updates to that target must land in the copy.
    table = {(1, 0): {(0, 0): {2: 1}}, (0, 1): {(0, 0): {2: 1, 3: -1}}}
    expander = cache(lambda w: Combination(STANDARD, table[w]))
    snapshot = copy.deepcopy(table)
    for x in ({(1, 0): {0: 1}, (0, 1): {0: 1}},
              {(1, 0): {0: 1, 1: 1}, (0, 1): {0: -1}}):
        out = substitute(Combination(CANONICAL, x), expander, basis=STANDARD)
        assert out.terms == _substitute_reference(x, table)
        for w in table:
            assert all(r is not expander(w).terms[u] for u, r in out.terms.items())
        assert table == snapshot


# push against substitute: every chain level of both routes, as a link
# and as the walk along it.
_LINKS = ([(precanonical._LINKS[i], lambda w, i=i: step_up(i, w))
           for i in (5, 4, 3, 2)]
          + [(adjusted._LINKS[k], lambda w, k=k: adjusted_expand_up(k, w))
             for k in (5, 4, 3, 2)])
_LINK_IDS = [f"precanonical{i}" for i in (5, 4, 3, 2)] + \
    [f"adjusted{k}" for k in (5, 4, 3, 2)]
_BOX8 = dominant_box(8, 8)
_polys8 = st.dictionaries(st.integers(0, 4), st.sampled_from([1, -1, 2, -3]),
                          min_size=1, max_size=3)


@st.composite
def _pushed_terms(draw, link):
    """Terms on the 8x8 box, some of whose weights carry a twin at their
    successor, -c*q^d times their own coefficient, which cancels the term
    they push there."""
    terms = draw(st.dictionaries(st.sampled_from(_BOX8), _polys8, max_size=8))
    for w in draw(st.lists(st.sampled_from(sorted(terms)), max_size=3)
                  if terms else st.just([])):
        step = link(*w)
        if step is not None:
            u, d, c = step
            terms[u] = {e + d: -c * v for e, v in terms[w].items()}
    return terms


@pytest.mark.parametrize("link, chain", _LINKS, ids=_LINK_IDS)
@given(data=st.data())
def test_push_matches_substitute(link, chain, data):
    terms = data.draw(_pushed_terms(link))
    x = Combination(CANONICAL, terms)
    snapshot = copy.deepcopy(terms)
    got = push(x.terms, link)
    assert got == substitute(x, chain, basis=chain((0, 0)).basis).terms
    validate(Combination(STANDARD, got))
    assert x.terms == snapshot
    assert all(r is not p for r in got.values() for p in terms.values())


@pytest.mark.parametrize("link", [link for link, _ in _LINKS], ids=_LINK_IDS)
def test_push_cancels_and_empty(link):
    assert push({}, link) == {}
    # a twin at the successor cancels a whole chain below it
    for w in _BOX8:
        step = link(*w)
        if step is not None:
            u, d, c = step
            p = {0: 1, 2: -3}
            assert push({w: p, u: {e + d: -c * v for e, v in p.items()}},
                        link) == {w: p}


def test_push_rejects_links_that_do_not_descend():
    flat = lambda a, b: ((a + 5, b - 3), 1, 1) if b >= 3 else None
    up = lambda a, b: ((a + 1, b), 1, 1) if a < 4 else None
    out = lambda a, b: ((a - 1, b), 1, 1) if b < 9 else None
    for link, w in ((flat, (0, 3)), (up, (1, 1)), (out, (0, 2))):
        with pytest.raises(RuntimeError):
            push({w: {0: 1}}, link)
        with pytest.raises(RuntimeError):
            walk(link, w, STANDARD)
        with pytest.raises(RuntimeError):
            relation(link, w, STANDARD)


def _step_up_reference(i, lam):
    # The hand-written chain walks that step_up replaced.
    a, b = lam
    if i == 5:
        return {(a, b - j): {j: 1} for j in range(b + 1)}
    if i == 2:
        return {(a + j, b - j): {j: 1} for j in range(b + 1)}
    terms = {}
    e = 0
    if i == 3:
        while True:
            terms[(a, b)] = {e: 1}
            if a >= 1:
                a -= 1
                e += 1
            elif b >= 2:
                a, b = 2, b - 2
                e += 2
            else:
                return terms
    c = 1
    while True:
        terms[(a, b)] = {e: c}
        if a >= 3:
            a -= 3
            b += 1
            e += 1
        elif a == 2:
            return terms
        elif a == 1:
            a = 0
            e += 1
            c = -c
        elif b >= 1:
            a, b = 1, b - 1
            e += 1
            c = -c
        else:
            return terms


def _expand_up_reference(k, lam):
    # The hand-written walk that adjusted_expand_up replaced.
    member = X_SINGLE[k]
    ga, gb = GAMMA[k]
    a, b = lam
    terms = {lam: {0: 1}}
    j = 0
    while member(a, b):
        a, b, j = a - ga, b - gb, j + 1
        terms[(a, b)] = {j: 1}
    return terms


def test_walks_match_hand_written_chains():
    for lam in dominant_box(20, 20):
        for i in (2, 3, 4, 5):
            got = step_up(i, lam)
            assert got.basis is pre_canonical(i)
            assert got.terms == _step_up_reference(i, lam), (i, lam)
            got = adjusted_expand_up(i, lam)
            assert got.basis is adjusted_label(i)
            assert got.terms == _expand_up_reference(i, lam), (i, lam)
    for i, lam in ((1, (1, 1)), (6, (1, 1)), (3, (-1, 2))):
        for chain in (step_up, adjusted_expand_up):
            with pytest.raises(ValueError):
                chain(i, lam)


def test_sorted_support_examples():
    x = atomic((2, 4))
    assert sorted_support(x, first=(2, 4)) == REF_ORDER_24
    assert sorted_support(x, first=(2, 4))[:7] == [
        (2, 4), (3, 3), (1, 4), (4, 2), (2, 3), (5, 1), (0, 4)]
    y = Combination(ATOMIC, {(5, 1): {0: 1}, (0, 4): {0: 1}})
    assert sorted_support(y) == [(5, 1), (0, 4)]
    z = single(ATOMIC, (3, 3))
    assert sorted_support(z) == [(3, 3)]
    assert sorted_support(z, first=(3, 3)) == [(3, 3)]
    # a designated weight outside the support is not inserted
    assert sorted_support(y, first=(9, 9)) == [(5, 1), (0, 4)]


def test_display_key_total_order():
    box = dominant_box(12, 12)
    keys = {}
    for w in box:
        k = display_key(w)
        assert k not in keys, (w, keys.get(k))
        keys[k] = w


def test_validate_flags_bad_combinations():
    good = Combination(ATOMIC, {(1, 0): {0: 1}})
    validate(good)
    with pytest.raises(AssertionError):
        validate(Combination(ATOMIC, {(-1, 0): {0: 1}}))
    with pytest.raises(AssertionError):
        validate(Combination(ATOMIC, {(1, 0): {}}))


# Both routes fold a canonical combination down their chains.  The fold is
# linear, so it must agree with expanding each weight on its own and
# collecting: sum over w of p_w * atomic(w).
_ROUTES = [(precanonical.to_atomic, precanonical.atomic),
           (adjusted.to_atomic, adjusted.atomic_second)]
_canonical_terms = st.dictionaries(
    st.sampled_from(dominant_box(6, 6)),
    st.dictionaries(st.integers(0, 4), st.sampled_from([1, -1, 2, -3]),
                    min_size=1, max_size=3),
    max_size=6)


@given(_canonical_terms)
@example({})
# neighbours whose expansions overlap, with opposite signs
@example({(2, 2): {0: 1}, (3, 1): {1: -1}, (1, 2): {0: -1, 2: 2},
          (0, 2): {1: -3}})
def test_fold_is_linear(terms):
    x = Combination(CANONICAL, terms)
    for to_atomic, atomic_at in _ROUTES:
        got = to_atomic(x)
        assert got == substitute(x, atomic_at, basis=ATOMIC)
        assert got.basis == ATOMIC
        validate(got)
    assert x.terms == terms


def test_fold_rejects_other_bases():
    for to_atomic, _ in _ROUTES:
        with pytest.raises(ValueError):
            to_atomic(single(ATOMIC, (1, 0)))


def test_fold_rejects_weights_outside_the_cone():
    for to_atomic, _ in _ROUTES:
        for w in [(-1, 0), (5, -1), (0, -3)]:
            x = Combination(CANONICAL, {(2, 2): {0: 1}, w: {1: 1}})
            with pytest.raises(ValueError, match=re.escape(f"weight {w!r} is not dominant")):
                to_atomic(x)


def _fresh_folds():
    """(name, expand, atomic) for new folds of both routes, which no other
    test can have warmed; for the pre-canonical route under a top link with
    factor 2q; and for the step (a, b) -> (a, b-1) with factor q, then the
    same step with factor -q, over the identity base map.  There atomic(a, b)
    is N(a, b) + q^2 atomic(a, b-2)."""
    as_atomic = lambda terms: Combination(ATOMIC, terms)
    step = lambda c: lambda a, b: ((a, b - 1), 1, c) if b >= 1 else None
    folds = [("precanonical", precanonical.CHAIN, as_atomic),
             ("adjusted", adjusted.CHAIN, adjusted._tails),
             ("doubled-top", [step(2)] + precanonical.CHAIN[1:], as_atomic),
             ("signed-second", [step(1), step(-1)], as_atomic)]
    return [(name, *combo.folded(links, base)) for name, links, base in folds]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "column"])
def test_reused_neighbours_do_not_show(order):
    # The memo hands every caller the same expansion.  Whatever the order in
    # which a box is walked, each weight's expansion is its own fold, and
    # the expansions handed out earlier at the weights of its top chain are
    # left as they were and share no polynomial with it.  The column (0, b)
    # runs deep into the signed level-4 chain.
    box = dominant_box(9, 9)
    if order == "descending":
        box.reverse()
    elif order == "shuffled":
        random.Random(14).shuffle(box)
    elif order == "column":
        box = [(0, b) for b in range(41)]
    for name, to_atomic, atomic_at in _fresh_folds():
        seen, before = {}, {}
        for lam in box:
            below = [w for w in walk(precanonical._link5, lam, CANONICAL).terms
                     if w in seen]
            got = atomic_at(lam)
            assert got == to_atomic(single(CANONICAL, lam)), (name, lam)
            validate(got)
            assert all(seen[w].terms == before[w] for w in below), (name, lam)
            shared = {id(p) for w in below for p in seen[w].terms.values()}
            assert not shared & {id(p) for p in got.terms.values()}, (name, lam)
            seen[lam], before[lam] = got, copy.deepcopy(got.terms)


@pytest.mark.parametrize("change, message", [
    (lambda t: Combination(CANONICAL, t), "in the canonical basis, not atomic"),
    (lambda t: Combination(ATOMIC, {**t, (2, 4): {1: 1}}), "not unitriangular"),
    (lambda t: Combination(ATOMIC, {**t, (-1, 3): {0: 1}}), "has support at (-1, 3)"),
    (lambda t: Combination(ATOMIC, {**t, (3, 4): {0: 1}}), "has support at (3, 4)"),
    (lambda t: Combination(ATOMIC, {**t, (0, 4): {0: -1}}), "coefficient {0: -1} at (0, 4)"),
    (lambda t: Combination(ATOMIC, {**t, (0, 4): {-1: 1}}), "coefficient {-1: 1} at (0, 4)"),
    (lambda t: Combination(ATOMIC, {**t, (0, 4): {}}), "coefficient {} at (0, 4)"),
    (lambda t: Combination(ATOMIC, {**t, (0, 4): {0: 1, 3: 1}}),
     "coefficient {0: 1, 3: 1} at (0, 4), of degree above r2 = 2"),
], ids=["basis", "unitriangular", "outside the cone", "above lam", "negative",
        "negative exponent", "zero", "degree above r2"])
def test_check_atomic_rejects_each_fault(change, message):
    # (0, 4) lies below (2, 4), with r2((2, 4) - (0, 4)) = 2; (3, 4) lies
    # above it
    x = precanonical.atomic((2, 4))
    combo.check_atomic((2, 4), x)
    with pytest.raises(ValueError, match=re.escape(message)):
        combo.check_atomic((2, 4), change(dict(x.terms)))


def _adjusted2_below(lam):
    a, b = lam
    if a >= 3 or a + b < 2:
        return None
    if a == 2:
        return (0, b)
    if a == 1:
        return (1, b - 1)
    return (0, b - 2)


def _adjusted2_recursive(lam):
    # The level-2 expansion as the case-split recursion, each branch
    # reusing the expansion at _adjusted2_below(lam).  A descent never
    # branches, so the reference needs no memo.
    below = _adjusted2_below(lam)
    if below is None:
        return Combination(ATOMIC, {lam: {0: 1}})
    a, b = lam
    terms = {lam: {0: 1}}
    for u, p in _adjusted2_recursive(below).terms.items():
        terms[u] = poly_add(terms.get(u, {}),
                            poly_scale_qpow(p, 4 if a == 0 else 2))
    if a < 2:
        for k in range(2 - a, b + 1):
            u = (a + k, b - k)
            terms[u] = poly_add(terms.get(u, {}), {k: 1})
    return Combination(ATOMIC, {u: p for u, p in terms.items() if p})


def test_adjusted2_forward_matches_recursion():
    for lam in dominant_box(20, 20) + [(1, 150), (0, 300)]:
        assert adjusted2_in_atomic(lam) == _adjusted2_recursive(lam), lam


def test_every_memo_keeps_one_result():
    # One memo rule for the package: dominant_memo takes no size and keeps
    # the one result asked for last.  Every submodule is scanned, so a memo
    # added later must keep it too.
    assert list(inspect.signature(combo.dominant_memo).parameters) == ["fn"]
    sizes = {}
    for info in pkgutil.iter_modules(g2atomic.__path__):
        module = importlib.import_module(f"g2atomic.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"precanonical.atomic", "graded.precanonical_level5",
            "adjusted.atomic_second", "graded.adjusted_level5",
            "kostka.canonical_to_standard", "kostka.multiplicity_table"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size != 1} == {}
