"""Mass allocations, Dempster combination, simple support functions and the
decomposition of a belief function into simple support components.

Masses may be signed: decomposition weights can exceed 1, and the matching
components then carry negative mass.  Whether a given allocation is an
honest (nonnegative) one is a query, not a type constraint.
"""

from __future__ import annotations

import math

from .capacity import DEFAULT_TOL, _belief_mass, _require_tol
from .errors import (
    FocusIsBottom,
    LatticeMismatch,
    NonPositiveWeight,
    NotABelief,
    TopMassZero,
    TotalConflict,
)
from .lattice import Lattice
from .transforms import SetFunction, _Vector, comobius_transform, mass_from_comobius

COMBINE_POLICIES = ("raw", "zero-bottom", "normalize")


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
                raise ValueError(f"mass total is {total!r}, expected 1")
            if abs(bottom) > tol:
                raise ValueError(f"mass at bottom is {bottom!r}, expected 0")

    def focal_elements(self, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
        """Elements carrying mass beyond the tolerance, in input order."""
        _require_tol(tol)
        return tuple(x for x, v in zip(self.lattice.elements, self.vector) if abs(v) > tol)

    def is_nonnegative(self, tol: float = DEFAULT_TOL) -> bool:
        _require_tol(tol)
        return all(v >= -tol for v in self.vector)


class SupportWeights:
    """Weights of a simple-support decomposition, keyed by focus element.

    Foci with weight 1 contribute a vacuous component and are omitted from
    ``weights``; ``vector`` holds every element's weight in input order."""

    __slots__ = ("lattice", "weights", "vector")

    def __init__(self, lattice: Lattice, weights):
        weights = dict(weights)  # checked as a function: known elements, finite numbers
        full = SetFunction(lattice, {**dict.fromkeys(lattice.elements, 1.0), **weights})
        self.lattice = lattice
        self.vector = full.vector
        self.weights = {y: w for y, w in full.items() if y in weights}

    def __getitem__(self, y: str) -> float:
        return self.vector[self.lattice.poset.index_of(y)]

    def items(self):
        return self.weights.items()

    def __repr__(self) -> str:
        return f"SupportWeights({self.weights!r})"


def combine(
    m1: MassAllocation,
    m2: MassAllocation,
    policy: str = "raw",
    *,
    tol: float = DEFAULT_TOL,
) -> MassAllocation:
    """Dempster's rule: the combined mass of x collects m1(y1) m2(y2) over all
    pairs with y1 ^ y2 = x.

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
    l, bottom = m1.lattice, m1.lattice._order[0]
    out = [0.0] * len(l)
    second = [(j, v2) for j, v2 in enumerate(m2.vector) if v2 != 0.0]
    for meet_i, v1 in zip(l._meet, m1.vector):
        if v1 != 0.0:
            for j, v2 in second:
                out[meet_i[j]] += v1 * v2
    conflict = out[bottom]
    if policy != "raw":
        out[bottom] = 0.0
    if policy == "normalize":
        if 1.0 - conflict <= tol:
            raise TotalConflict(f"conflict mass {conflict!r} leaves nothing to renormalize")
        out = [v / (1.0 - conflict) for v in out]
    return MassAllocation(l, _Vector(out), check=False)


def simple_support(l: Lattice, y: str, w: float) -> MassAllocation:
    """Two-point mass 1-w at the focus y and w at top.

    Weights in (0, 1) give belief functions; other positive weights give the
    signed components that decomposition may require.
    """
    if y == l.bottom and y != l.top:
        raise FocusIsBottom("a simple support function cannot focus on bottom")
    vals = [0.0] * len(l)
    vals[l.poset.index_of(y)] += 1.0 - float(w)
    vals[l._order[-1]] += float(w)
    return MassAllocation(l, _Vector(vals), check=False)


def decompose(bel: SetFunction, *, tol: float = DEFAULT_TOL) -> SupportWeights:
    """Weights w(y) of the simple-support decomposition of a belief function.

    w(y) is the product over x >= y of q(x) to the power -mu(y, x), with q
    the commonality of bel; requires positive mass at top so that every q(x)
    is positive.  In log space that product is the inverse co-Moebius
    transform, so log w = -mass_from_comobius(log q).  The vacuous weight at
    top is omitted, as are weights equal to 1 up to 1e-12.
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
    by_focus = zip(l.elements, (math.exp(-lw) for lw in log_w.vector))
    return SupportWeights(l, {y: w for y, w in by_focus if y != l.top and abs(w - 1.0) > 1e-12})


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
        raise ValueError("the commonality of these weights exceeds the float range") from None
    return MassAllocation(l, mass_from_comobius(SetFunction(l, q)).vector, check=False)
