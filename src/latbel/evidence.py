"""Mass allocations, Dempster combination, simple support functions and the
decomposition of a belief function into simple support components.

Masses may be signed: decomposition weights can exceed 1, and the matching
components then carry negative mass.  Whether a given allocation is an
honest (nonnegative) one is a query, not a type constraint.
"""

from __future__ import annotations

from .errors import (
    FocusIsBottom,
    LatticeMismatch,
    NonPositiveWeight,
    NotABelief,
    TopMassZero,
    TotalConflict,
)
from .lattice import Lattice
from .transforms import (
    SetFunction,
    comobius_transform,
    mass_from_comobius,
    mobius_function,
    mobius_transform,
)

DEFAULT_TOL = 1e-9

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
        if check:
            total = sum(self.values.values())
            if abs(total - 1.0) > tol:
                raise ValueError(f"mass total is {total!r}, expected 1")
            if abs(self.values[lattice.bottom]) > tol:
                raise ValueError(f"mass at bottom is {self.values[lattice.bottom]!r}, expected 0")

    def focal_elements(self, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
        """Elements carrying mass beyond the tolerance, in input order."""
        return tuple(x for x, v in self.values.items() if abs(v) > tol)

    def is_nonnegative(self, tol: float = DEFAULT_TOL) -> bool:
        return all(v >= -tol for v in self.values.values())


class SupportWeights:
    """Weights of a simple-support decomposition, keyed by focus element.

    Foci with weight 1 contribute a vacuous component and are omitted."""

    __slots__ = ("lattice", "weights")

    def __init__(self, lattice: Lattice, weights):
        weights = dict(weights)
        for y in weights:
            lattice.poset.index_of(y)
        self.lattice = lattice
        self.weights = {y: float(weights[y]) for y in lattice.elements if y in weights}

    def __getitem__(self, y: str) -> float:
        return self.weights.get(y, 1.0)

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
    if m1.lattice is not m2.lattice:
        raise LatticeMismatch("mass allocations live on different lattices")
    l = m1.lattice
    out = {x: 0.0 for x in l.elements}
    for y1 in l.elements:
        v1 = m1.values[y1]
        if v1 == 0.0:
            continue
        for y2 in l.elements:
            v2 = m2.values[y2]
            if v2 != 0.0:
                out[l.meet(y1, y2)] += v1 * v2
    if policy == "zero-bottom":
        out[l.bottom] = 0.0
    elif policy == "normalize":
        conflict = out[l.bottom]
        if 1.0 - conflict <= tol:
            raise TotalConflict(f"conflict mass {conflict!r} leaves nothing to renormalize")
        out[l.bottom] = 0.0
        out = {x: v / (1.0 - conflict) for x, v in out.items()}
    return MassAllocation(l, out, check=False)


def simple_support(l: Lattice, y: str, w: float) -> MassAllocation:
    """Two-point mass 1-w at the focus y and w at top.

    Weights in (0, 1) give belief functions; other positive weights give the
    signed components that decomposition may require.
    """
    if y == l.bottom and y != l.top:
        raise FocusIsBottom("a simple support function cannot focus on bottom")
    l.poset.index_of(y)
    vals = {x: 0.0 for x in l.elements}
    vals[y] += 1.0 - float(w)
    vals[l.top] += float(w)
    return MassAllocation(l, vals, check=False)


def decompose(bel: SetFunction, *, tol: float = DEFAULT_TOL) -> SupportWeights:
    """Weights w(y) of the simple-support decomposition of a belief function.

    w(y) is the product over x >= y of q(x) to the power -mu(y, x), with q
    the commonality of bel; requires positive mass at top so that every q(x)
    is positive.  The vacuous weight at top is omitted, as are weights equal
    to 1 up to 1e-12.
    """
    from .capacity import check_belief

    res = check_belief(bel, tol)
    if not res:
        raise NotABelief(res.witness, res.detail)
    l = bel.lattice
    m = mobius_transform(bel)
    if m[l.top] <= tol:
        raise TopMassZero(f"mass at top is {m[l.top]!r}; decomposition needs it positive")
    qv = list(comobius_transform(m).values.values())
    weights = {}
    for y, row in zip(l.elements, mobius_function(l)._rows):
        if y == l.top:
            continue
        w = 1.0
        for x, c in row.items():
            w *= qv[x] ** -c
        if abs(w - 1.0) > 1e-12:
            weights[y] = w
    return SupportWeights(l, weights)


def recombine(weights: SupportWeights, *, tol: float = DEFAULT_TOL) -> MassAllocation:
    """Dempster-combine (raw) the simple supports described by the weights.

    Computed multiplicatively on the commonality side: q(x) is the product
    of w(y) over the foci y not above x, then inverted back to a mass.
    Missing foci count as weight 1.
    """
    l = weights.lattice
    for y, w in weights.items():
        if w <= 0.0:
            raise NonPositiveWeight(f"weight {w!r} at {y!r}")
    qvals = {}
    for x in l.elements:
        q = 1.0
        for y, w in weights.items():
            if not l.leq(x, y):
                q *= w
        qvals[x] = q
    mass = mass_from_comobius(SetFunction(l, qvals))
    return MassAllocation(l, mass.values, check=False)
