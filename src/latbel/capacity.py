"""Recognizers for capacities, belief functions, k-monotone functions and
k-valuations, plus conjugation with respect to a negation.

Every check returns a :class:`CheckResult` that is truthy when the property
holds and otherwise carries the first counterexample found in canonical
(input-order) enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidNegation, SizeLimitExceeded
from .transforms import SetFunction, mobius_transform

DEFAULT_TOL = 1e-9
DEFAULT_MAX_MEETS = 10**7


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _require_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


def _boundary(f: SetFunction, tol: float):
    _require_tol(tol)
    l = f.lattice
    if abs(f[l.bottom]) > tol:
        return CheckResult(False, (l.bottom,), f"f(bottom) = {f[l.bottom]!r}, expected 0")
    if abs(f[l.top] - 1.0) > tol:
        return CheckResult(False, (l.top,), f"f(top) = {f[l.top]!r}, expected 1")
    return None


def check_capacity(f: SetFunction, tol: float = DEFAULT_TOL) -> CheckResult:
    """f(bottom) = 0, f(top) = 1 and f isotone on every comparable pair.

    Decided exactly in one walk up a linear extension, comparing each f(y)
    with the largest value strictly beneath y; the pair scan only names the
    first failing pair."""
    bad = _boundary(f, tol)
    if bad is not None:
        return bad
    l = f.lattice
    fv = list(f.values.values())
    upto = [0.0] * len(fv)  # the largest value on each down-set
    for y in l._order:
        below = max(map(upto.__getitem__, l.poset._cov_down[y]), default=-math.inf)
        if below > fv[y] + tol:
            return _isotone_scan(l, fv, tol)
        upto[y] = max(below, fv[y])
    return CheckResult(True)


def _isotone_scan(l, fv, tol) -> CheckResult:
    """The first comparable pair, in index order, with f(lower) > f(upper) + tol."""
    down = l.poset._down
    for x, y in itertools.combinations(range(len(l)), 2):
        lo, hi = (x, y) if down[y] >> x & 1 else (y, x) if down[x] >> y & 1 else (None, None)
        if lo is not None and fv[lo] > fv[hi] + tol:
            x, y = l.elements[lo], l.elements[hi]
            return CheckResult(False, (x, y), f"f({x}) = {fv[lo]!r} > f({y}) = {fv[hi]!r}")
    return CheckResult(True)


def check_belief(f: SetFunction, tol: float = DEFAULT_TOL) -> CheckResult:
    """Boundary conditions plus a nonnegative Moebius transform."""
    return _belief_mass(f, tol)[0]


def _belief_mass(f: SetFunction, tol: float):
    """The verdict of :func:`check_belief` and the Moebius transform it
    tested, None when the boundary conditions already fail."""
    bad = _boundary(f, tol)
    if bad is not None:
        return bad, None
    m = mobius_transform(f)
    worst = min(f.lattice.elements, key=lambda x: m[x])
    if m[worst] < -tol:
        return CheckResult(False, (worst,), f"negative Moebius mass m({worst}) = {m[worst]!r}"), m
    return CheckResult(True), m


def _sweep(f: SetFunction, k: int, tol: float, max_meets: int, op: str = "<") -> CheckResult:
    """The first family of 2 to k distinct elements, smallest size first,
    whose f(join) is below (op "!=": differs from) the alternating sum of f
    over its subfamilies' meets.  Sizes above |L|-2 add nothing: a family
    holding bottom has the inequality of the family without it, one holding
    top holds with equality.  Refuses a sweep of over ``max_meets`` meets."""
    _require_tol(tol)
    l = f.lattice
    n = len(l)
    sizes = range(2, min(k, max(2, n - 2)) + 1)
    meets = sum(math.comb(n, j) * (2**j - 1) for j in sizes)
    if meets > max_meets:
        raise SizeLimitExceeded(
            f"{meets} meet evaluations exceed the cap of {max_meets}; raise it with --limit"
        )
    fails = {"<": lambda lhs, rhs: lhs < rhs - tol,
             "!=": lambda lhs, rhs: abs(lhs - rhs) > tol}[op]
    fv = list(f.values.values())
    join_t, meet_t = l._join, l._meet
    for j in sizes:
        for family in itertools.combinations(range(n), j):
            top = family[0]
            for i in family[1:]:
                top = join_t[top][i]
            lhs, rhs = fv[top], 0.0
            for r in range(1, j + 1):
                sign = 1.0 if r % 2 else -1.0
                for sub in itertools.combinations(family, r):
                    low = sub[0]
                    for i in sub[1:]:
                        low = meet_t[low][i]
                    rhs += sign * fv[low]
            if fails(lhs, rhs):
                names = tuple(l.elements[i] for i in family)
                return CheckResult(False, names, f"f(join) = {lhs!r} {op} {rhs!r}")
    return CheckResult(True)


def check_k_monotone(
    f: SetFunction, k: int, tol: float = DEFAULT_TOL, max_meets: int = DEFAULT_MAX_MEETS
) -> CheckResult:
    """f(join of the family) >= alternating sum of f over meets of subfamilies,
    for every family of k elements, repeated members allowed.

    A family with repeated members has the inequality of its distinct
    members, so the families of 2 to k distinct elements are checked.
    """
    if k < 2:
        raise ValueError("k-monotonicity is defined for k >= 2")
    return _sweep(f, k, tol, max_meets)


def check_k_valuation(
    f: SetFunction, k: int, tol: float = DEFAULT_TOL, max_meets: int = DEFAULT_MAX_MEETS
) -> CheckResult:
    """The k-monotonicity inequality degenerates into an equality everywhere."""
    if k < 2:
        raise ValueError("k-valuations are defined for k >= 2")
    return _sweep(f, k, tol, max_meets, "!=")


def check_total_monotone(
    f: SetFunction, tol: float = DEFAULT_TOL, max_meets: int = DEFAULT_MAX_MEETS
) -> CheckResult:
    """k-monotonicity for every k from 2 up to |L|-2, which suffices for all k."""
    res = _sweep(f, len(f.lattice), tol, max_meets)
    return res or CheckResult(False, res.witness, f"fails at k={len(res.witness)}: {res.detail}")


def conjugate(f: SetFunction, n, variant: str) -> SetFunction:
    """x maps to 1 - f(n(x)) for variant "vee", 1 - f(n_inverse(x)) for "wedge"."""
    if variant not in ("vee", "wedge"):
        raise ValueError(f"variant must be 'vee' or 'wedge', got {variant!r}")
    if n.lattice is not f.lattice:
        raise InvalidNegation("negation and function live on different lattices")
    if n.kind != "vee":
        raise InvalidNegation("conjugation expects a join-reversing (vee) negation")
    send = n.map if variant == "vee" else n.inverse_map
    return SetFunction(f.lattice, {x: 1.0 - f[send[x]] for x in f.lattice.elements})


def max_k_monotone(f: SetFunction, tol: float = DEFAULT_TOL, max_meets: int = DEFAULT_MAX_MEETS):
    """The largest k for which f is k-monotone: "total" when every k up to
    |L|-2 passes, 1 when k = 2 already fails, None when the meet cap
    prevents the sweep."""
    try:
        return _max_k(f, tol, max_meets)
    except SizeLimitExceeded:
        return None


def _max_k(f: SetFunction, tol: float, max_meets: int):
    res = _sweep(f, len(f.lattice), tol, max_meets)
    return "total" if res else len(res.witness) - 1

