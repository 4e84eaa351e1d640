"""Kostka-Foulkes polynomials and the classical multiplicity oracle.

The atomic element at a dominant weight expands into the standard basis with
pure q-power coefficients, one for every dominant weight below it, with
exponent the height of the difference.  Composing with the atomic expansion
of the canonical basis gives the full triangular array of generalized
Kostka-Foulkes polynomials: the coefficient at mu sums q**height(nu - mu)
times the atomic coefficient over every nu above mu, that is, over the
quadrant of root coordinates at and above those of mu.  One column of the
array is two running sums over that grid, along each row and then down
each column (canonical_to_standard); kostka_foulkes sums one entry
directly, as a second path.  Specializing q to 1 must reproduce dominant
weight multiplicities of the irreducible representation, which an
independent Freudenthal recursion computes from nothing but the root data.
The checks module runs that comparison with the structural invariants.
"""

from __future__ import annotations

from .lattice import (Weight, POSITIVE_ROOTS, check_dominant, check_weight,
                      dominance_leq, dominant_below, height, linear_dominant,
                      orbit_size, to_root_coords)
from .polyq import Poly, iadd_scaled
from .combo import Combination, STANDARD, dominant_memo
# The positive adjusted route serves every expansion here; the pre-canonical
# route is the cross-approach oracle.
from .adjusted import atomic_second as atomic


def atomic_to_standard(lam: Weight) -> Combination:
    """Atomic element in the standard basis: every dominant weight below
    lam appears once, with coefficient q to the height of the difference."""
    check_dominant(lam)
    h = height(lam)
    terms = {mu: {h - height(mu): 1} for mu in dominant_below(lam)}
    return Combination(STANDARD, terms)


@dominant_memo
def canonical_to_standard(lam: Weight) -> Combination:
    """Canonical element in the standard basis.  The coefficient at mu is
    the generalized Kostka-Foulkes polynomial for (lam, mu).

    With a(r1, r2) the atomic coefficient at the weight of root coordinates
    (r1, r2), a step of one in either coordinate changes the height by one,
    and the coefficient at mu is G(rc mu), where, row by row from the top
    row r2 and column r1 down,

        S(r1, r2) = a(r1, r2) + q * S(r1 + 1, r2),
        G(r1, r2) = S(r1, r2) + q * G(r1, r2 + 1).

    Both are kept multiplied by q**(r1 + r2), so that each step adds into
    the running sum without shifting it: S takes q**(r1 + r2) * a(r1, r2),
    and G takes S.  One row of G is kept, and the factor comes off at each
    dominant mu."""
    a = {to_root_coords(nu): p for nu, p in atomic(lam).terms.items()}
    top1, top2 = to_root_coords(lam)
    terms: dict[Weight, Poly] = {}
    g_row: dict[int, Poly] = {}  # first root coordinate -> G on this row
    for r2 in range(top2, -1, -1):
        s: Poly = {}
        # a vanishes past r1 = min(top1, 2 * r2), and no dominant weight on
        # this row or below has r1 > 2 * r2, so G is not needed there
        for r1 in range(min(top1, 2 * r2), -1, -1):
            h = r1 + r2
            iadd_scaled(s, a.get((r1, r2), {}), h)
            g = g_row.setdefault(r1, {})
            iadd_scaled(g, s)
            if g and 2 * r1 >= 3 * r2:  # a dominant mu, at rc mu = (r1, r2)
                terms[2 * r1 - 3 * r2, 2 * r2 - r1] = {e - h: c for e, c in g.items()}
    if terms.get(lam) != {0: 1}:
        raise RuntimeError(f"standard expansion at {lam!r} is not unitriangular")
    return Combination(STANDARD, terms)


def kostka_foulkes(lam: Weight, mu: Weight) -> Poly:
    """Generalized Kostka-Foulkes polynomial: the sum, over atomic support
    weights nu >= mu, of q**height(nu - mu) times the atomic coefficient."""
    check_dominant(lam)
    check_dominant(mu)
    if not dominance_leq(mu, lam):
        return {}
    acc: Poly = {}
    for nu, p in atomic(lam).terms.items():
        if not dominance_leq(mu, nu):
            continue
        iadd_scaled(acc, p, height(nu) - height(mu))
    return acc


# Freudenthal oracle.  The symmetric form is normalized so that the short
# simple root has square length 2; in (fundamental-weight, root) pairing
# this is <(a, b), (c1, c2)> = a*c1 + 3*b*c2, an integer.

def _pair(w: Weight, rc) -> int:
    return w[0] * rc[0] + 3 * w[1] * rc[1]


def _norm_shifted(w: Weight) -> int:
    # <w + rho, w + rho> with both slots converted consistently
    a, b = w[0] + 1, w[1] + 1
    # root coords of (a, b) are (2a + 3b, a + 2b)
    return _pair((a, b), (2 * a + 3 * b, a + 2 * b))


@dominant_memo
def multiplicity_table(lam: Weight) -> dict[Weight, int]:
    """Multiplicities of all dominant weights of the irreducible highest
    weight module, by the Freudenthal recursion, filled top down in height.
    Entirely independent of the q-analogue machinery."""
    order = sorted(dominant_below(lam), key=height, reverse=True)
    allowed = set(order)
    norm_top = _norm_shifted(lam)
    table: dict[Weight, int] = {}
    for nu in order:
        if nu == lam:
            table[nu] = 1
            continue
        num = 0
        for wcoords, rc, _h in POSITIVE_ROOTS:
            k = 1
            while True:
                w = (nu[0] + k * wcoords[0], nu[1] + k * wcoords[1])
                wd = linear_dominant(w)
                if wd not in allowed:
                    break  # the root string through nu has left the weights
                num += table[wd] * _pair(w, rc)
                k += 1
        den = norm_top - _norm_shifted(nu)
        if den <= 0:
            raise RuntimeError(f"norm gap is not positive at {nu!r} below {lam!r}")
        mult, rem = divmod(2 * num, den)
        if rem:
            raise RuntimeError(f"Freudenthal division is not exact at {nu!r} "
                               f"below {lam!r}")
        table[nu] = mult
    return table


def freudenthal_multiplicity(lam: Weight, mu: Weight) -> int:
    """Multiplicity of the weight mu in the irreducible module of highest
    weight lam.  mu may be any weight; it is reflected to dominance first."""
    check_weight(mu)
    nu = linear_dominant(mu)
    return multiplicity_table(lam).get(nu, 0)


def weyl_dimension(lam: Weight) -> int:
    """Dimension of the irreducible module, by the product formula."""
    check_dominant(lam)
    shifted = (lam[0] + 1, lam[1] + 1)
    num = den = 1
    for _w, rc, _h in POSITIVE_ROOTS:
        num *= _pair(shifted, rc)
        den *= _pair((1, 1), rc)
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"Weyl dimension is not integral at {lam!r}")
    return dim


def dimension_by_orbits(lam: Weight) -> int:
    """Dimension recovered from the multiplicity table and orbit sizes;
    must equal weyl_dimension."""
    return sum(m * orbit_size(nu) for nu, m in multiplicity_table(lam).items())


# Defined here rather than in checks: the benchmark's tracer marks the end of
# each check run, one per weight in the sweep, by hooking its construction.
# It sees only the runs of the calling process, not a forked child's.
class CheckResult:
    """The outcome of one named check, with a detail string."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.ok, self.detail)
                == (other.name, other.ok, other.detail))

    def __repr__(self) -> str:
        return (f"CheckResult(name={self.name!r}, ok={self.ok!r}, "
                f"detail={self.detail!r})")
