"""Necessity and possibility functions, their distributions on irreducibles,
and reconstruction of the unique focal chain from a possibility distribution.

A necessity function turns meets into minima; its conjugate under a
vee-negation turns joins into maxima and is a possibility function.  On a
distributive lattice either one is pinned down by its values on the
irreducibles alone.  Conversely, a strictly increasing possibility
distribution determines a unique maximal chain of focal elements together
with the masses sitting on it; ``reconstruct_chain`` carries out that
selection procedure step by step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .capacity import DEFAULT_TOL, CheckResult, _boundary, _require_tol
from .errors import (
    InvalidDistribution,
    InvalidNegation,
    NotDistributive,
    SelectionFailed,
    TiesInDistribution,
    TopValueNotOne,
)
from .duality import Negation
from .evidence import MassAllocation
from .lattice import Lattice, eta, is_distributive, mu_set
from .transforms import _Vector


class PossibilityDistribution:
    """Values in [0, 1] on the join-irreducibles, attaining 1 somewhere."""

    __slots__ = ("lattice", "pi")

    def __init__(self, lattice: Lattice, pi, *, tol: float = DEFAULT_TOL):
        self.lattice = lattice
        self.pi = _checked_distribution(lattice, pi, lattice.joinirr, "pi", tol)
        if not any(abs(v - 1.0) <= tol for v in self.pi.values()):
            raise InvalidDistribution("no join-irreducible attains possibility 1")

    def __getitem__(self, j: str) -> float:
        return self.pi[j]

    def items(self):
        return self.pi.items()


class NecessityDistribution:
    """Values in [0, 1] on the meet-irreducibles, attaining 0 somewhere."""

    __slots__ = ("lattice", "nu")

    def __init__(self, lattice: Lattice, nu, *, tol: float = DEFAULT_TOL):
        self.lattice = lattice
        self.nu = _checked_distribution(lattice, nu, lattice.meetirr, "nu", tol)
        if not any(abs(v) <= tol for v in self.nu.values()):
            raise InvalidDistribution("no meet-irreducible attains necessity 0")

    def __getitem__(self, m: str) -> float:
        return self.nu[m]

    def items(self):
        return self.nu.items()


def _checked_distribution(lattice, values, domain, label, tol):
    _require_tol(tol)
    values = dict(values)
    missing = [x for x in domain if x not in values]
    if missing:
        raise InvalidDistribution(f"{label} gives no value for {missing[0]!r}")
    extra = [x for x in values if x not in domain]
    if extra:
        raise InvalidDistribution(f"{label} defined on non-irreducible {extra[0]!r}")
    out = {}
    for x in domain:
        v = float(values[x])
        if not -tol <= v <= 1.0 + tol:  # also refuses NaN
            raise InvalidDistribution(f"{label}({x}) = {v!r} outside [0, 1]")
        out[x] = v
    return out


@dataclass(frozen=True)
class ReconstructionStep:
    k: int
    x: str
    nx: str
    eta_nx: tuple
    iota: str
    chain_element: str


@dataclass(frozen=True)
class FocalChain:
    """A maximal chain of focal elements (bottom omitted, top last), the mass
    allocation carried on it, and the join-irreducible selection sequence in
    the order it was chosen (largest distribution value first)."""

    chain: tuple
    mass: MassAllocation
    iota: tuple
    steps: tuple


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
    table, cuts, pick = (l._meet, l.poset._up, min) if want_min else (l._join, l.poset._down, max)
    fv = list(f.vector)  # a list's item getter sorts faster than a tuple's
    order = sorted(range(len(fv)), key=fv.__getitem__, reverse=want_min)
    seen, a, last = 0, order[0], fv[order[0]]
    for i in order:  # seen is the cut of the values before fv[i], a its meet (join)
        if fv[i] != last and seen != cuts[a]:
            return _pair_scan(l, fv, tol, table, pick)
        seen, a, last = seen | 1 << i, table[a][i], fv[i]
    return CheckResult(True)


def _pair_scan(l, fv, tol, table, pick):
    """The first pair whose meet (join) value is off their min (max) by over tol."""
    for i, j in itertools.combinations(range(len(l)), 2):
        lhs, rhs = fv[table[i][j]], pick(fv[i], fv[j])
        if abs(lhs - rhs) > tol:
            x, y = l.elements[i], l.elements[j]
            op = pick.__name__
            return CheckResult(False, (x, y), f"{lhs!r} != {op}(f({x}), f({y})) = {rhs!r}")
    return CheckResult(True)


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
    vals = [pi[j] for j in eta(pi.lattice, x)]
    return max(vals) if vals else 0.0


def eval_necessity(nu: NecessityDistribution, x: str) -> float:
    """Smallest nu value among the meet-irreducibles above x (1 at top)."""
    vals = [nu[m] for m in mu_set(nu.lattice, x)]
    return min(vals) if vals else 1.0


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

    pi must be isotone on the join-irreducibles (InvalidDistribution
    otherwise).  Sorting the join-irreducibles j_1 < ... < j_n by strictly
    increasing pi (ties are refused), the procedure walks k = n down to 1
    and selects the one join-irreducible outside eta(n(j_k)) that lies
    inside every eta(n(j_l)) for l < k.  Prefix joins of the selections
    form the chain; the element added at step k carries mass
    pi(j_k) - pi(j_(k-1)).
    """
    _require_distributive(l)
    if n.lattice is not l:
        raise InvalidNegation("negation lives on a different lattice")
    if n.kind != "vee":
        raise InvalidNegation("chain reconstruction expects a vee-negation")

    values = dict(pi.pi) if isinstance(pi, PossibilityDistribution) else dict(pi)
    values = _checked_distribution(l, values, l.joinirr, "pi", tol)
    count = len(l.joinirr)
    if count == 0:
        raise InvalidDistribution("the lattice has no join-irreducibles")

    ordered = sorted(l.joinirr, key=lambda j: (values[j], l.poset.index_of(j)))
    for a, b in zip(ordered, ordered[1:]):
        if abs(values[a] - values[b]) <= tol:
            raise TiesInDistribution(a, b, values[a])
    if abs(values[ordered[-1]] - 1.0) > tol:
        raise TopValueNotOne(f"largest pi value is {values[ordered[-1]]!r}, expected 1")
    for a, b in itertools.permutations(l.joinirr, 2):
        if values[a] > values[b] and l.leq(a, b):
            raise InvalidDistribution(f"pi is not isotone: {a} <= {b} but "
                                      f"pi({a}) = {values[a]!r} > pi({b}) = {values[b]!r}")

    all_ji = frozenset(l.joinirr)
    etas = {j: eta(l, n(j)) for j in ordered}
    # prefix[t] is the intersection of etas over the t smallest j
    prefix = [all_ji]
    for j in ordered:
        prefix.append(prefix[-1] & etas[j])

    def by_index(xs):
        return sorted(xs, key=l.poset.index_of)

    iota: list[str] = []
    chain: list[str] = []
    steps: list[ReconstructionStep] = []
    for k in range(count, 0, -1):
        jk = ordered[k - 1]
        candidates = prefix[k - 1] - etas[jk]
        if len(candidates) != 1:
            raise SelectionFailed(k, by_index(candidates))
        (pick,) = candidates
        element = pick if not chain else l.join(chain[-1], pick)
        if chain and element == chain[-1]:
            raise SelectionFailed(k, (pick,), detail=f"step {k}: chain stalled at {element!r}")
        iota.append(pick)
        chain.append(element)
        steps.append(
            ReconstructionStep(
                k=k, x=jk, nx=n(jk), eta_nx=tuple(by_index(etas[jk])),
                iota=pick, chain_element=element,
            )
        )
    if chain[-1] != l.top:
        raise SelectionFailed(0, (chain[-1],), detail="chain did not reach the top")

    masses = [0.0] * len(l)
    for pos, element in enumerate(chain):
        k = count - pos
        previous = values[ordered[k - 2]] if k >= 2 else 0.0
        masses[l.poset.index_of(element)] = values[ordered[k - 1]] - previous
    mass = MassAllocation(l, _Vector(masses), tol=2 * tol)
    return FocalChain(chain=tuple(chain), mass=mass, iota=tuple(iota), steps=tuple(steps))
