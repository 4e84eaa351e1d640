"""Lattice arithmetic, straightening, and membership sets.

The straightening tests use an independent oracle: breadth-first search over
the full dot orbit with parity tracking, which never applies the production
reflection policy.
"""

import pytest

from g2atomic import checks, kostka, precanonical
from g2atomic.adjusted import atomic_second
from g2atomic.checks import verify
from g2atomic.lattice import (GAMMA, PHI_GEQ, POSITIVE_ROOTS, RHO,
                              dominance_leq, dominant_below, dominant_box,
                              dominant_rep, gamma_sum, height, is_dominant,
                              linear_dominant, orbit_size, sub, to_root_coords,
                              x_I_member, x_set_member)


# independent straightening oracle: explore the whole dot orbit

def dot_reflect(i, w):
    """Dot action of the simple reflection s_i."""
    a, b = w
    if i == 1:
        return (-a - 2, a + b + 1)
    if i == 2:
        return (a + 3 * b + 3, -b - 2)
    raise ValueError(f"simple reflection index must be 1 or 2, got {i!r}")


def orbit_rep_oracle(w):
    """Straighten w by exploring its full dot orbit.  Singular iff the
    orbit is smaller than the Weyl group (nontrivial stabilizer of the
    rho-shift), detected as a parity clash or an undersized orbit."""
    seen = {w: 0}
    frontier = [w]
    clash = False
    while frontier:
        nxt = []
        for v in frontier:
            par = seen[v]
            for i in (1, 2):
                u = dot_reflect(i, v)
                if u in seen:
                    if seen[u] != par ^ 1 and u != v:
                        clash = True
                    if u == v:
                        clash = True  # fixed point of a reflection
                else:
                    seen[u] = par ^ 1
                    nxt.append(u)
        frontier = nxt
    if clash or len(seen) < 12:
        return None
    dominants = [v for v in seen if is_dominant(v)]
    assert len(dominants) == 1
    rep = dominants[0]
    return (1 if seen[rep] % 2 == 0 else -1, rep)


def test_root_coords_examples():
    assert to_root_coords((1, 0)) == (2, 1)
    assert to_root_coords((0, 1)) == (3, 2)
    assert to_root_coords((0, 0)) == (0, 0)
    assert to_root_coords(RHO) == (5, 3)


def test_height_examples():
    assert height((1, 0)) == 3
    assert height((0, 1)) == 5
    assert height((0, 0)) == 0
    assert height(RHO) == 8


def test_positive_root_table_is_consistent():
    assert [rc for _, rc, _ in POSITIVE_ROOTS] == [
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    for w, rc, h in POSITIVE_ROOTS:
        assert to_root_coords(w) == rc
        assert rc[0] + rc[1] == h
        assert height(w) == h
    # the four roots of height >= 2 are gamma_2..gamma_5
    for i, g in GAMMA.items():
        assert height(g) == i
    for i in range(2, 7):
        expected = tuple(w for w, _, h in POSITIVE_ROOTS if h >= i)
        assert PHI_GEQ[i] == expected
    assert PHI_GEQ[6] == ()


def test_add_sub():
    assert sub((1, 2), (3, -1)) == (-2, 3)


def test_dot_reflect_closed_forms():
    assert dot_reflect(1, (-2, 1)) == (0, 0)
    assert dot_reflect(2, (3, -2)) == (0, 0)
    with pytest.raises(ValueError):
        dot_reflect(3, (0, 0))


def test_dot_reflect_is_involution():
    for a in range(-8, 9):
        for b in range(-8, 9):
            w = (a, b)
            for i in (1, 2):
                assert dot_reflect(i, dot_reflect(i, w)) == w


def test_dot_reflect_fixed_walls():
    # the walls of the dot action are first coordinate -1 and second -1
    for n in range(-6, 7):
        assert dot_reflect(1, (-1, n)) == (-1, n)
        assert dot_reflect(2, (n, -1)) == (n, -1)


def test_dominant_rep_examples():
    for n in range(-4, 8):
        assert dominant_rep((n, -1)) is None
        assert dominant_rep((-1, n)) is None
    assert dominant_rep((3, 2)) == (1, (3, 2))
    assert dominant_rep((-2, 1)) == (-1, (0, 0))


def test_dominant_rep_against_orbit_oracle():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert dominant_rep((a, b)) == orbit_rep_oracle((a, b))


def test_dominant_rep_reflection_invariance():
    for a in range(-7, 8):
        for b in range(-7, 8):
            w = (a, b)
            got = dominant_rep(w)
            for i in (1, 2):
                u = dot_reflect(i, w)
                other = dominant_rep(u)
                if got is None:
                    assert other is None
                elif u == w:
                    assert other == got
                else:
                    assert other == (-got[0], got[1])


def test_linear_dominant():
    assert linear_dominant((3, 2)) == (3, 2)
    assert linear_dominant((-1, 1)) == (1, 0)  # gamma_2 reflects onto w1
    for a in range(-10, 11):
        for b in range(-10, 11):
            rep = linear_dominant((a, b))
            assert is_dominant(rep)
            # same linear orbit: reachable by reflections from (a, b)
            seen = {(a, b)}
            frontier = [(a, b)]
            while frontier:
                nxt = []
                for (x, y) in frontier:
                    for u in ((-x, x + y), (x + 3 * y, -y)):
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
                frontier = nxt
            assert rep in seen
            assert sum(1 for v in seen if is_dominant(v)) == 1


def test_dominance_examples():
    assert dominance_leq((0, 0), (1, 0))
    assert dominance_leq((1, 0), (0, 1))
    assert not dominance_leq((0, 1), (1, 0))
    # incomparable pair
    assert not dominance_leq((5, 0), (0, 3))
    assert not dominance_leq((0, 3), (5, 0))


def test_dominance_is_partial_order():
    box = dominant_box(8, 8)
    leq = {(u, v): dominance_leq(u, v) for u in box for v in box}
    for u in box:
        assert leq[(u, u)]
    for u in box:
        for v in box:
            if leq[(u, v)] and leq[(v, u)]:
                assert u == v
    for u in box:
        ups = [v for v in box if leq[(u, v)]]
        for v in ups:
            for w in box:
                if leq[(v, w)]:
                    assert leq[(u, w)]


def test_height_difference_nonnegative():
    for lam in dominant_box(8, 8):
        for mu in dominant_below(lam):
            d = height(lam) - height(mu)
            assert d == height(sub(lam, mu))
            assert d >= 0


def test_x_set_examples():
    assert x_set_member(2, (2, 1))
    assert not x_set_member(2, (2, 0))
    assert x_set_member(3, (2, 0))
    assert x_set_member(4, (3, 0))
    assert not x_set_member(4, (2, 5))
    assert x_set_member(5, (0, 1))
    with pytest.raises(ValueError):
        x_set_member(6, (0, 0))
    with pytest.raises(ValueError):
        x_set_member(2, (-1, 0))


def test_x_membership_implies_dominant_shift():
    for lam in dominant_box(10, 10):
        for k in (2, 3, 4, 5):
            if x_set_member(k, lam):
                assert is_dominant(sub(lam, GAMMA[k]))


def test_x_I_examples():
    assert x_I_member((), (0, 0))
    assert x_I_member({3}, (2, 0))
    assert not x_I_member({3, 4}, (3, 0))  # needs first coordinate > 3
    assert x_I_member({3, 4}, (4, 0))
    assert x_I_member((2, 3), (2, 1))
    with pytest.raises(ValueError):
        x_I_member({1}, (0, 0))


def test_x_I_membership_implies_dominant_shift():
    subsets = [tuple(i for i in (2, 3, 4, 5) if m & (1 << (i - 2)))
               for m in range(16)]
    for lam in dominant_box(8, 8):
        for I in subsets:
            if x_I_member(I, lam):
                assert is_dominant(sub(lam, gamma_sum(I)))


def test_gamma_sum():
    assert gamma_sum(()) == (0, 0)
    assert gamma_sum({2, 3}) == (0, 1)
    assert gamma_sum({2, 3, 4, 5}) == (3, 1)


def test_dominant_below():
    assert dominant_below((0, 0)) == [(0, 0)]
    assert set(dominant_below((1, 0))) == {(0, 0), (1, 0)}
    assert set(dominant_below((0, 1))) == {(0, 0), (1, 0), (0, 1)}
    assert len(dominant_below((2, 4))) == 30
    # brute-force cross-check on a box large enough to contain everything
    for lam in dominant_box(5, 5):
        brute = {mu for mu in dominant_box(20, 20) if dominance_leq(mu, lam)}
        assert set(dominant_below(lam)) == brute


def test_orbit_size():
    assert orbit_size((0, 0)) == 1
    assert orbit_size((3, 0)) == 6
    assert orbit_size((0, 2)) == 6
    assert orbit_size((1, 1)) == 12
    with pytest.raises(ValueError):
        orbit_size((-1, 0))


def test_library_weights_are_pairs_of_ints():
    # A float or bool coordinate used to end in a RuntimeError, a TypeError
    # or a failed verification; every entry point now rejects it by name.
    calls = [lambda: atomic_second((2.5, 1)), lambda: atomic_second((2.0, 1)),
             lambda: verify((1.5, 0)), lambda: checks.sweep(1.5, 1),
             lambda: atomic_second((True, 1)),
             lambda: kostka.kostka_foulkes((2, 0), (0.5, 0))]
    for call in calls:
        with pytest.raises(ValueError, match="not two ints|must be ints"):
            call()
    with pytest.raises(ValueError, match=r"weight \(-1, 2\) is not dominant"):
        atomic_second((-1, 2))
    # A weight that is not a pair used to end in Python's unpacking errors.
    for w, shown in ((5, "5"), (None, "None"), ((1, 2, 3), r"\(1, 2, 3\)")):
        with pytest.raises(ValueError, match=rf"^weight {shown} is not two ints$"):
            atomic_second(w)
    # (2.0, 1) equals and hashes like (2, 1), so each weight memo checks the
    # weight before its lookup, not only on a miss.
    for memo in (atomic_second, precanonical.atomic,
                 kostka.canonical_to_standard, kostka.multiplicity_table):
        memo((2, 1))
        with pytest.raises(ValueError, match=r"weight \(2.0, 1\) is not two ints"):
            memo((2.0, 1))
