"""Exact arithmetic on the G2 weight lattice.

Weights are plain integer pairs ``(a, b)`` in fundamental-weight
coordinates, meaning ``a*w1 + b*w2``.  The simple roots expand as
``alpha1 = (2, -1)`` and ``alpha2 = (-3, 2)`` in these coordinates, and
conversely ``w1 = 2*alpha1 + alpha2``, ``w2 = 3*alpha1 + 2*alpha2``, so the
root-coordinate expansion of ``(a, b)`` is the linear map
``(2a + 3b, a + 2b)``.  Height is the sum of root coordinates, ``3a + 5b``.

The six positive roots, by height:

    1: alpha1 = (2, -1)          1: alpha2 = (-3, 2)
    2: gamma2 = alpha1 + alpha2    = (-1, 1)
    3: gamma3 = 2*alpha1 + alpha2  = (1, 0)   (equals w1)
    4: gamma4 = 3*alpha1 + alpha2  = (3, -1)
    5: gamma5 = 3*alpha1 + 2*alpha2 = (0, 1)  (equals w2)

``rho = (1, 1)`` is the half-sum of the positive roots (height 8).

The finite Weyl group acts linearly by ``s1(a, b) = (-a, a+b)`` and
``s2(a, b) = (a+3b, -b)``; the dot action is the linear action conjugated
by the rho shift, ``w . v = w(v + rho) - rho``.
"""

from __future__ import annotations

Weight = tuple[int, int]
RootCoords = tuple[int, int]

# (weight coords, root coords, height), height ascending.  Transcribed
# constants; the test suite recomputes them from the simple roots.
POSITIVE_ROOTS: tuple[tuple[Weight, RootCoords, int], ...] = (
    ((2, -1), (1, 0), 1),
    ((-3, 2), (0, 1), 1),
    ((-1, 1), (1, 1), 2),
    ((1, 0), (2, 1), 3),
    ((3, -1), (3, 1), 4),
    ((0, 1), (3, 2), 5),
)

# The unique positive root of each height 2..5.
GAMMA: dict[int, Weight] = {h: w for w, _, h in POSITIVE_ROOTS if h >= 2}

# Roots of height >= i, for signed subset sums.  Empty from level 6 on.
PHI_GEQ: dict[int, tuple[Weight, ...]] = {
    i: tuple(w for w, _, h in POSITIVE_ROOTS if h >= i) for i in range(2, 7)
}


def to_root_coords(w: Weight) -> RootCoords:
    """Coefficients of w on the simple roots (alpha1, alpha2)."""
    a, b = w
    return (2 * a + 3 * b, a + 2 * b)


def height(w: Weight) -> int:
    """Sum of the root coordinates of w."""
    a, b = w
    return 3 * a + 5 * b


def is_dominant(w: Weight) -> bool:
    return w[0] >= 0 and w[1] >= 0


def check_weight(w: Weight) -> None:
    """Raise ValueError unless w is a tuple of two ints, of any sign."""
    try:
        a, b = w
    except (TypeError, ValueError):  # caught, not tested: a hot path
        raise ValueError(f"weight {w!r} is not two ints") from None
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"weight {w!r} is not two ints")
    if not isinstance(w, tuple):  # a list would fail later, in a memo lookup
        raise ValueError(f"weight {w!r} is not a tuple")


def check_dominant(w: Weight) -> None:
    check_weight(w)
    if w[0] < 0 or w[1] < 0:
        raise ValueError(f"weight {w!r} is not dominant")


def check_level(i: int, hi: int) -> None:
    if not (isinstance(i, int) and 2 <= i <= hi):
        raise ValueError(f"level must be in 2..{hi}, got {i!r}")


def dominance_leq(mu: Weight, lam: Weight) -> bool:
    """True when lam - mu is a non-negative integer sum of positive roots,
    i.e. both root coordinates of the difference are >= 0."""
    da = lam[0] - mu[0]
    db = lam[1] - mu[1]
    return 2 * da + 3 * db >= 0 and da + 2 * db >= 0


# The dot orbit of any weight meets the closed dominant cone within l(w0) = 6
# reflections; 12 is a safe internal bound.
_REFLECTION_CAP = 12


def _straighten(w: Weight, shift: int) -> tuple[int, int, int]:
    """(sign, x, y): w + (shift, shift) reflected linearly into the closed
    dominant cone, with sign = (-1)**(number of reflections)."""
    x, y = w[0] + shift, w[1] + shift
    sign = 1
    steps = 0
    while x < 0 or y < 0:
        if steps >= _REFLECTION_CAP:
            raise RuntimeError(f"straightening of {w!r} did not terminate")
        if x < 0:
            x, y = -x, x + y
        else:
            x, y = x + 3 * y, -y
        sign = -sign
        steps += 1
    return sign, x, y


def dominant_rep(w: Weight) -> "tuple[int, Weight] | None":
    """Straighten w under the dot action.

    Returns None when w + rho lies on a wall (w is singular), otherwise
    (sign, rep) where rep is the unique dominant weight in the dot orbit and
    sign is (-1)**(number of simple reflections used).  The policy reflects
    the first strictly negative coordinate of w + rho at each step.  w is not
    checked: precanonical.straightened and graded.in_canonical call this once
    per weight they make that is not dominant.
    """
    sign, x, y = _straighten(w, 1)
    if x == 0 or y == 0:
        return None
    return (sign, (x - 1, y - 1))


def linear_dominant(w: Weight) -> Weight:
    """Dominant representative of w under the plain linear Weyl action."""
    _, x, y = _straighten(w, 0)
    return (x, y)


def orbit_size(mu: Weight) -> int:
    """Size of the linear Weyl orbit of a dominant weight."""
    check_dominant(mu)
    a, b = mu
    if a == 0 and b == 0:
        return 1
    if a == 0 or b == 0:
        return 6
    return 12


# Membership conditions for the single-index sets X_k: the weights where the
# adjusted basis element at level k picks up its correction term.
X_SINGLE = {
    2: lambda a, b: a >= 2 and b >= 1,
    3: lambda a, b: a >= 2,
    4: lambda a, b: a >= 3,
    5: lambda a, b: b >= 1,
}


def _index_set(I) -> tuple[int, ...]:
    """I, a set of ints in {2,3,4,5}, as an ascending tuple (INDEX_SUBSETS)."""
    idx = set(I)
    if not idx <= {2, 3, 4, 5}:
        raise ValueError(f"index set must be a subset of {{2,3,4,5}}, got {I!r}")
    for i in idx:
        check_level(i, 5)  # refuses 3.0, which equals 3
    return tuple(sorted(idx))


def x_I_member(I: frozenset | set | tuple | list, lam: Weight) -> bool:
    """Whether lam lies in X_I, defined recursively on the index set I:
    X_empty is everything, and for i0 = min I, lam is in X_I when lam is in
    X_{i0} and lam - gamma_{i0} is in X_{I minus i0}.  Each step taken
    stays dominant: X_i holds only where subtracting gamma_i does."""
    check_dominant(lam)
    a, b = lam
    for i in _index_set(I):
        if not X_SINGLE[i](a, b):
            return False
        a, b = a - GAMMA[i][0], b - GAMMA[i][1]
    return True


# The 16 subsets of {2,3,4,5} as ascending tuples, in bitmask order.
INDEX_SUBSETS = tuple(
    tuple(i for i in (2, 3, 4, 5) if mask & (1 << (i - 2)))
    for mask in range(16)
)

# Closed-form membership conditions for every subset of {2,3,4,5}, used only
# as a cross-check of the recursion above.  Keys are the tuples of
# INDEX_SUBSETS; values take the coordinates of lam.
X_I_CLOSED: dict[tuple[int, ...], object] = {
    (): lambda a, b: True,
    (2,): lambda a, b: a > 1 and b > 0,
    (3,): lambda a, b: a > 1,
    (4,): lambda a, b: a > 2,
    (5,): lambda a, b: b > 0,
    (2, 3): lambda a, b: a > 1 and b > 0,
    (2, 4): lambda a, b: a > 1 and b > 0,
    (2, 5): lambda a, b: a > 1 and b > 1,
    (3, 4): lambda a, b: a > 3,
    (3, 5): lambda a, b: a > 1 and b > 0,
    (4, 5): lambda a, b: a > 2,
    (2, 3, 4): lambda a, b: a > 2 and b > 0,
    (2, 3, 5): lambda a, b: a > 1 and b > 1,
    (2, 4, 5): lambda a, b: a > 1 and b > 0,
    (3, 4, 5): lambda a, b: a > 3,
    (2, 3, 4, 5): lambda a, b: a > 2 and b > 0,
}


def x_I_member_closed(I, lam: Weight) -> bool:
    """Closed-form version of x_I_member (cross-check only)."""
    check_dominant(lam)
    return X_I_CLOSED[_index_set(I)](*lam)


def dominant_below(lam: Weight) -> list[Weight]:
    """All dominant weights <= lam in dominance order, in a fixed scan
    order.  The two root-coordinate inequalities cut out a finite box."""
    check_dominant(lam)
    r1, r2 = to_root_coords(lam)
    out = []
    d = 0
    while 3 * d <= r1 and 2 * d <= r2:
        c_max = min((r1 - 3 * d) // 2, r2 - 2 * d)
        for c in range(c_max + 1):
            out.append((c, d))
        d += 1
    return out


def dominant_box(max_a: int, max_b: int) -> list[Weight]:
    """All dominant weights with a <= max_a and b <= max_b."""
    return [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]
