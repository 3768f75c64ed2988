"""Necessity and possibility functions, their distributions on irreducibles,
and reconstruction of the unique focal chain from a possibility distribution.

A necessity function turns meets into minima; its conjugate under a
vee-negation turns joins into maxima and is a possibility function.  On a
distributive lattice either one is pinned down by its values on the
irreducibles alone.  Conversely, a strictly increasing possibility
distribution determines a unique maximal chain of focal elements together
with the masses sitting on it; ``reconstruct_chain`` carries out that
selection procedure step by step.

Like every validated structure in this package, a distribution holds index
tuples only, and its name dicts (``pi``, ``nu``, ``items()``) are fresh copies.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .capacity import DEFAULT_TOL, CheckResult, _boundary, _first_drop, _require_tol
from .errors import (
    InvalidDistribution,
    InvalidNegation,
    NotDistributive,
    SelectionFailed,
    TiesInDistribution,
    TopValueNotOne,
    UnknownElement,
)
from .lattice import (Lattice, _incomparable_pairs, _indices, _join_index, _meet_index, _names,
                      is_distributive)
from .transforms import _Vector

if TYPE_CHECKING:  # the annotation alone: reading it loads no layer at run time
    from .duality import Negation


class _Distribution:
    """Values in [0, 1] on one family of irreducibles, stored only as
    ``vector``: one entry per lattice element in element order, None off the
    family; the name dict (``pi`` or ``nu``) is a new copy on each access."""

    __slots__ = ("lattice", "vector")

    def __init__(self, lattice: Lattice, values, *, tol: float = DEFAULT_TOL):
        self.lattice = lattice
        self.vector = self._vector(lattice, values, tol)
        index, domain = lattice._index, getattr(lattice, self._domain)
        if not any(abs(self.vector[index[x]] - self._attained) <= tol for x in domain):
            raise InvalidDistribution(self._unattained)

    @classmethod
    def _vector(cls, l: Lattice, values, tol: float) -> tuple:
        """The vector of the values given by name, each in [0, 1] within tol."""
        _require_tol(tol)
        values, label, domain = dict(values), cls._label, getattr(l, cls._domain)
        missing = [x for x in domain if x not in values]
        if missing:
            raise InvalidDistribution(f"{label} gives no value for {missing[0]!r}")
        if len(values) > len(domain):  # so some key lies outside the domain
            extra = next(x for x in values if x not in domain)
            raise InvalidDistribution(f"{label} defined on non-irreducible {extra!r}")
        vector, index = [None] * len(l), l._index
        for x in domain:
            try:
                v = float(values[x])
            except (TypeError, ValueError, OverflowError):
                raise InvalidDistribution(f"{label}({x}) = {values[x]!r} is not a number") from None
            if not -tol <= v <= 1.0 + tol:  # also refuses NaN
                raise InvalidDistribution(f"{label}({x}) = {v!r} outside [0, 1]")
            vector[index[x]] = v
        return tuple(vector)

    def __getitem__(self, x: str) -> float:
        v = self.vector[self.lattice.index_of(x)]
        if v is None:
            raise UnknownElement(x)
        return v

    def items(self):
        """(irreducible, value) pairs in element order, from a new dict."""
        return {x: v for x, v in zip(self.lattice.elements, self.vector) if v is not None}.items()


class PossibilityDistribution(_Distribution):
    """Values in [0, 1] on the join-irreducibles, attaining 1 somewhere."""

    __slots__ = ()
    _label, _domain, _attained = "pi", "joinirr", 1.0
    _unattained = "no join-irreducible attains possibility 1"
    pi = property(lambda self: dict(self.items()), doc="A new dict of join-irreducible to value.")


class NecessityDistribution(_Distribution):
    """Values in [0, 1] on the meet-irreducibles, attaining 0 somewhere."""

    __slots__ = ()
    _label, _domain, _attained = "nu", "meetirr", 0.0
    _unattained = "no meet-irreducible attains necessity 0"
    nu = property(lambda self: dict(self.items()), doc="A new dict of meet-irreducible to value.")


ReconstructionStep = namedtuple("ReconstructionStep", "k x nx eta_nx iota chain_element")
FocalChain = namedtuple("FocalChain", "chain mass iota steps")
FocalChain.__doc__ = """A maximal chain of focal elements (bottom omitted, top last), the mass
allocation carried on it, and the join-irreducible selection sequence in
the order it was chosen (largest distribution value first)."""


def check_necessity(f, tol: float = DEFAULT_TOL) -> CheckResult:
    """Boundary conditions plus N(x ^ y) = min(N(x), N(y)) on all pairs.

    Holds at once, exactly, when every cut {x : N(x) >= a} is the up-set of
    its meet (Dubois & Prade 1988); else the pair scan decides within tol."""
    return _min_max_check(f, tol, want_min=True)


def check_possibility(f, tol: float = DEFAULT_TOL) -> CheckResult:
    """Boundary conditions plus P(x v y) = max(P(x), P(y)) on all pairs.

    The dual of :func:`check_necessity`, on the cuts {x : P(x) <= a}."""
    return _min_max_check(f, tol, want_min=False)


def _min_max_check(f, tol, want_min):
    bad = _boundary(f, tol)
    if bad is not None:
        return bad
    l = f.lattice
    principal, bound, pick = ((set(l._up), _meet_index, min) if want_min
                              else (set(l._down), _join_index, max))
    fv = list(f.vector)  # a list's item getter sorts faster than a tuple's
    order = sorted(range(len(fv)), key=fv.__getitem__, reverse=want_min)
    seen, last = 0, fv[order[0]]
    for i in order:  # seen is the cut of the values before fv[i]
        if fv[i] != last and seen not in principal:
            return _pair_scan(l, fv, tol, bound, pick)
        seen, last = seen | 1 << i, fv[i]
    return CheckResult(True)


def _pair_scan(l, fv, tol, bound, pick):
    """The first pair whose meet (join) value is off their min (max) by over tol; a
    comparable x < y fails iff fv[x] - fv[y] > tol, found up to that row by _first_drop."""
    n = len(l)
    first = next(((i, j) for i, j in _incomparable_pairs(l)
                  if abs(fv[bound(l, i, j)] - pick(fv[i], fv[j])) > tol), (n, n))
    i, j = min(first, _first_drop(l, fv, tol, range(min(first[0] + 1, n)), True) or first)
    if i == n:
        return CheckResult(True)
    lhs, rhs, x, y = fv[bound(l, i, j)], pick(fv[i], fv[j]), l.elements[i], l.elements[j]
    return CheckResult(False, (x, y), f"{lhs!r} != {pick.__name__}(f({x}), f({y})) = {rhs!r}")


def possibility_distribution(f, *, tol: float = DEFAULT_TOL) -> PossibilityDistribution:
    """Restrict a possibility function to the join-irreducibles."""
    _require_distributive(f.lattice)
    return PossibilityDistribution(f.lattice, {j: f[j] for j in f.lattice.joinirr}, tol=tol)


def necessity_distribution(f, *, tol: float = DEFAULT_TOL) -> NecessityDistribution:
    """Restrict a necessity function to the meet-irreducibles."""
    _require_distributive(f.lattice)
    return NecessityDistribution(f.lattice, {m: f[m] for m in f.lattice.meetirr}, tol=tol)


def eval_possibility(pi: PossibilityDistribution, x: str) -> float:
    """Largest pi value among the join-irreducibles below x (0 at bottom)."""
    l = pi.lattice
    below = l._down[l.index_of(x)]
    return max(map(pi.vector.__getitem__, _indices(below & l._jmask)), default=0.0)


def eval_necessity(nu: NecessityDistribution, x: str) -> float:
    """Smallest nu value among the meet-irreducibles above x (1 at top)."""
    l = nu.lattice
    above = l._up[l.index_of(x)]
    return min(map(nu.vector.__getitem__, _indices(above & l._mmask)), default=1.0)


def _require_distributive(l: Lattice):
    if not is_distributive(l):
        raise NotDistributive("irreducible distributions need a distributive lattice")


def reconstruct_chain(
    l: Lattice,
    n: Negation,
    pi,
    *,
    tol: float = DEFAULT_TOL,
) -> FocalChain:
    """Recover the unique focal chain and masses behind a possibility
    distribution.

    pi must be isotone on the join-irreducibles, else InvalidDistribution
    names the first failing pair (``capacity._first_drop``).  Sorting the
    join-irreducibles j_1 < ... < j_n by strictly increasing pi (ties are
    refused), the procedure walks k = n down to 1 and selects the one
    join-irreducible outside eta(n(j_k)) that lies inside every eta(n(j_l))
    for l < k.  Prefix joins of the selections form the chain; the element
    added at step k carries mass pi(j_k) - pi(j_(k-1)).
    """
    _require_distributive(l)
    if n.lattice is not l:
        raise InvalidNegation("negation lives on a different lattice")
    if n.kind != "vee":
        raise InvalidNegation("chain reconstruction expects a vee-negation")

    if isinstance(pi, PossibilityDistribution):
        pi = pi.pi  # checked again under this tol, on this lattice
    values = PossibilityDistribution._vector(l, pi, tol)
    if not l._jmask:
        raise InvalidDistribution("the lattice has no join-irreducibles")

    names, down = l.elements, l._down
    ordered = sorted(_indices(l._jmask), key=lambda j: (values[j], j))
    for a, b in zip(ordered, ordered[1:]):
        if abs(values[a] - values[b]) <= tol:
            raise TiesInDistribution(names[a], names[b], values[a])
    if abs(values[ordered[-1]] - 1.0) > tol:
        raise TopValueNotOne(f"largest pi value is {values[ordered[-1]]!r}, expected 1")
    inf = float("inf")  # off J: above every value, so never a failing y
    drop = _first_drop(l, [inf if v is None else v for v in values], 0.0, list(_indices(l._jmask)))
    if drop is not None:
        (a, b), (va, vb) = _names(l, *drop), map(values.__getitem__, drop)
        raise InvalidDistribution(f"pi is not isotone: {a} <= {b} but "
                                  f"pi({a}) = {va!r} > pi({b}) = {vb!r}")

    etas = [down[n.image[j]] & l._jmask for j in ordered]  # eta(n(j)) as bitsets
    prefix = [l._jmask]  # prefix[t] is the intersection of etas over the t smallest j
    for e in etas:
        prefix.append(prefix[-1] & e)

    chain: list[int] = []
    steps: list[ReconstructionStep] = []
    masses = [0.0] * len(l)
    for k in range(len(ordered), 0, -1):
        jk = ordered[k - 1]
        candidates = prefix[k - 1] & ~etas[k - 1]
        if candidates.bit_count() != 1:
            raise SelectionFailed(k, _names(l, *_indices(candidates)))
        pick = candidates.bit_length() - 1
        element = _join_index(l, chain[-1], pick) if chain else pick
        if chain and element == chain[-1]:
            raise SelectionFailed(k, (names[pick],),
                                  detail=f"step {k}: chain stalled at {names[element]!r}")
        chain.append(element)
        masses[element] = values[jk] - (values[ordered[k - 2]] if k >= 2 else 0.0)
        steps.append(ReconstructionStep(
            k=k, x=names[jk], nx=names[n.image[jk]], eta_nx=_names(l, *_indices(etas[k - 1])),
            iota=names[pick], chain_element=names[element],
        ))
    if chain[-1] != len(l) - 1:  # the top
        raise SelectionFailed(0, (names[chain[-1]],), detail="chain did not reach the top")

    from .evidence import MassAllocation  # here, so the other checks load no evidence layer
    mass = MassAllocation(l, _Vector(masses), check=False)
    return FocalChain(chain=_names(l, *chain), mass=mass, iota=tuple(s.iota for s in steps),
                      steps=tuple(steps))
