"""Mass allocations, Dempster combination, simple support functions and the
decomposition of a belief function into simple support components.

Masses may be signed: decomposition weights can exceed 1, and the matching
components then carry negative mass.  Whether a given allocation is an
honest (nonnegative) one is a query, not a type constraint.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import mul

from .capacity import DEFAULT_TOL, _belief_mass, _require_tol
from .errors import (
    FocusIsBottom,
    InvalidFunction,
    LatticeMismatch,
    NonPositiveWeight,
    NotABelief,
    TopMassZero,
    TotalConflict,
)
from .lattice import COMBINE_POLICIES, Lattice, _cached
from .transforms import (
    SetFunction,
    _solve,
    _sums,
    _Vector,
    comobius_transform,
    mass_from_comobius,
)


class MassAllocation(SetFunction):
    """The Moebius side of a belief function: values summing to 1 with
    nothing at bottom.

    ``check=False`` skips those two invariants; combination policies produce
    legitimate exceptions (raw keeps conflict mass at bottom, zero-bottom
    leaves the total short of 1).
    """

    def __init__(self, lattice, values, *, check: bool = True, tol: float = DEFAULT_TOL):
        super().__init__(lattice, values)
        _require_tol(tol)
        if check:
            total, bottom = sum(self.vector), self.vector[lattice._order[0]]
            if abs(total - 1.0) > tol:
                raise InvalidFunction(f"mass total is {total!r}, expected 1")
            if abs(bottom) > tol:
                raise InvalidFunction(f"mass at bottom is {bottom!r}, expected 0")

    def focal_elements(self, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
        """Elements carrying mass beyond the tolerance, in input order."""
        _require_tol(tol)
        return tuple(x for x, v in zip(self.lattice.elements, self.vector) if abs(v) > tol)

    def is_nonnegative(self, tol: float = DEFAULT_TOL) -> bool:
        _require_tol(tol)
        return all(v >= -tol for v in self.vector)


class SupportWeights(SetFunction):
    """Weights of a simple-support decomposition, as a function whose
    ``vector`` holds every element's weight, 1 where none is given.  Foci
    with weight 1 contribute a vacuous component and are omitted from
    ``weights`` and ``items()``."""

    __slots__ = ()

    def __init__(self, lattice: Lattice, weights):
        if not isinstance(weights, _Vector):  # by focus name: known elements, finite numbers
            weights = {**dict.fromkeys(lattice.elements, 1.0), **dict(weights)}
        super().__init__(lattice, weights)

    @property
    def weights(self) -> dict:
        """A new dict of focus to weight, in input order, without weights of 1."""
        return {y: w for y, w in self.values.items() if w != 1.0}

    def items(self):
        return self.weights.items()


def combine(
    m1: MassAllocation,
    m2: MassAllocation,
    policy: str = "raw",
    *,
    tol: float = DEFAULT_TOL,
) -> MassAllocation:
    """Dempster's rule: the combined mass of x collects m1(y1) m2(y2) over all
    pairs of focal elements with y1 ^ y2 = x.

    Since y1 ^ y2 >= x iff both yi >= x, the combined commonality is the
    product q1(x) q2(x) (Kennes 1992, "Computational aspects of the Moebius
    transformation of graphs").  So when the focal pairs outnumber that
    product's cost, 30 per element plus half the total up-set size, the
    masses are summed along the cached up-set steps, multiplied, and the
    product is solved back to a mass along the reversed linear extension.
    Otherwise the pairs are summed, each meet read from the position
    down-sets, so that no call caches anything that grows with its inputs.

    Costs are counted in pairs, one update of the combined mass each.  Each
    of the product's three up-set passes costs about 10 pairs per element,
    and each value its steps gather a third of a pair by index or about a
    tenth as a slice; half the total up-set size stands in for those
    values.  The constants were fit when a pair cost about 50 ns, its meet
    read from a cached row of the meet table; read from the down-sets, it
    costs 1.4-1.7 times as much, so dense masses on ref18, B4, Pi4, M16
    and chain32 sum their pairs where the product is now the faster.
    Microseconds per call by pairs / by the product for dense masses from
    ``bench/gen.py`` (CPython 3.11 on a shared 2-core Xeon, ``timeit``, min
    of 5 in each of three runs, both columns in the same runs), by route:

        chain32    137 /   40  pairs      ref18   38 /  20  pairs
        chain64    587 /   75  product    B3       8 /  15  pairs
        chain128  2388 /  150  product    B4      24 /  16  pairs
        chain300 13131 /  338  product    Pi4     20 /  14  pairs
        B6         573 /   94  product    M16     29 /  16  pairs
        B8        9767 /  503  product    Pi5    301 /  51  product
        rand64     612 /  155  product    rand200 5503 / 575 product

    The two routes agree to rounding, but where the pair sum is exactly 0.0
    the product may leave a residue of rounding size: on B10, two masses on
    every set holding one atom have a conflict at bottom of about 1e-15,
    where the pairs give 0.0.

    raw keeps the conflict mass at bottom (the commonality product identity
    then holds everywhere); zero-bottom discards it without renormalizing;
    normalize discards it and rescales by 1 - conflict, raising
    TotalConflict when nothing remains.
    """
    if policy not in COMBINE_POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {COMBINE_POLICIES}")
    _require_tol(tol)
    if m1.lattice is not m2.lattice:
        raise LatticeMismatch("mass allocations live on different lattices")
    l, bottom, n = m1.lattice, m1.lattice._order[0], len(m1.lattice)
    pairs = (n - m1.vector.count(0.0)) * (n - m2.vector.count(0.0))
    up_total = _cached(l, "up_total", lambda: sum(u.bit_count() for u in l._up))
    if pairs > 30 * n + up_total / 2:
        out = _by_commonality(l, m1.vector, m2.vector)
    else:
        out = _by_pairs(l, m1.vector, m2.vector)
    conflict = out[bottom]
    if policy != "raw":
        out[bottom] = 0.0
    if policy == "normalize":
        if 1.0 - conflict <= tol:
            raise TotalConflict(f"conflict mass {conflict!r} leaves nothing to renormalize")
        out = [v / (1.0 - conflict) for v in out]
    return MassAllocation(l, _Vector(out), check=False)


def _by_pairs(l: Lattice, v1, v2) -> list[float]:
    """The raw combination summed pair by pair in input order, m1's focal
    element outermost, each meet read from the position down-sets as in
    ``lattice._meet_index``."""
    out, ids, pdown = [0.0] * len(l), range(len(l)), l._pdown
    at_length = (None, *l._order)  # the element at each bit length of a meet's down-set
    second = [(pdown[j], v2[j]) for j in compress(ids, v2)]  # 0.0 and -0.0 are false
    for i in compress(ids, v1):
        a, down_i = v1[i], pdown[i]
        for down_j, b in second:
            out[at_length[(down_i & down_j).bit_length()]] += a * b
    return out


def _by_commonality(l: Lattice, v1, v2) -> list[float]:
    """The raw combination as the mass whose commonality is q1 q2."""
    return _solve(l, "up", list(map(mul, _sums(l, "up", v1), _sums(l, "up", v2))))


def simple_support(l: Lattice, y: str, w: float) -> MassAllocation:
    """Two-point mass 1-w at the focus y and w at top.

    Weights in (0, 1) give belief functions; other positive weights give the
    signed components that decomposition may require.
    """
    if y == l.bottom and y != l.top:
        raise FocusIsBottom("a simple support function cannot focus on bottom")
    vals = [0.0] * len(l)
    vals[l.index_of(y)] += 1.0 - float(w)
    vals[l._order[-1]] += float(w)
    return MassAllocation(l, _Vector(vals), check=False)


def decompose(bel: SetFunction, *, tol: float = DEFAULT_TOL) -> SupportWeights:
    """Weights w(y) of the simple-support decomposition of a belief function.

    w(y) is the product over x >= y of q(x) to the power -mu(y, x), with q
    the commonality of bel; requires positive mass at top so that every q(x)
    is positive.  In log space that product is the inverse co-Moebius
    transform, so log w = -mass_from_comobius(log q).  The vacuous weight at
    top is omitted, as are weights equal to 1 up to 1e-12.  A tiny mass at
    top can push a weight beyond the float range, which raises
    InvalidFunction.
    """
    res, m = _belief_mass(bel, tol)
    if not res:
        raise NotABelief(res.witness, res.detail)
    l = bel.lattice
    if m[l.top] <= tol:
        raise TopMassZero(f"mass at top is {m[l.top]!r}; decomposition needs it positive")
    q = comobius_transform(m)
    low = min(q.vector)
    if low <= 0.0:  # reachable only through masses negative within the tolerance
        raise TopMassZero(f"commonality {low!r} is not positive; decomposition needs it positive")
    log_w = mass_from_comobius(SetFunction(l, _Vector(map(math.log, q.vector))))
    try:
        w = [math.exp(-lw) for lw in log_w.vector]
    except OverflowError:
        raise InvalidFunction("the weights of this decomposition exceed the float range") from None
    w[l._order[-1]] = 1.0
    return SupportWeights(l, _Vector(1.0 if abs(v - 1.0) <= 1e-12 else v for v in w))


def recombine(weights: SupportWeights) -> MassAllocation:
    """Dempster-combine (raw) the simple supports described by the weights.

    Computed multiplicatively on the commonality side: q(x) is the product
    of w(y) over the foci y not above x, then inverted back to a mass.  In
    log space, log q(x) is the sum of every log w(y) minus the co-Moebius
    transform of log w at x (the foci above x).  Missing foci count as
    weight 1.
    """
    l = weights.lattice
    for y, w in weights.items():
        if w <= 0.0:
            raise NonPositiveWeight(f"weight {w!r} at {y!r}")
    log_w = SetFunction(l, _Vector(map(math.log, weights.vector)))
    total = sum(log_w.vector)
    try:
        q = _Vector(math.exp(total - v) for v in comobius_transform(log_w).vector)
    except OverflowError:
        raise InvalidFunction("the commonality of these weights exceeds the float range") from None
    return MassAllocation(l, mass_from_comobius(SetFunction(l, q)).vector, check=False)
