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
DEFAULT_MAX_FAMILIES = 10**6


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CapacityCheckReport:
    """Summary report: capacity/belief/necessity flags and the largest k for
    which k-monotonicity was verified ("total" when all k up to |L|-2 pass,
    None when the family cap prevented the sweep)."""

    is_capacity: bool
    is_belief: bool
    is_necessity_hint: bool
    max_k_monotone: object
    failure_witness: tuple | None


def _boundary(f: SetFunction, tol: float):
    l = f.lattice
    if abs(f[l.bottom]) > tol:
        return CheckResult(False, (l.bottom,), f"f(bottom) = {f[l.bottom]!r}, expected 0")
    if abs(f[l.top] - 1.0) > tol:
        return CheckResult(False, (l.top,), f"f(top) = {f[l.top]!r}, expected 1")
    return None


def check_capacity(f: SetFunction, tol: float = DEFAULT_TOL) -> CheckResult:
    """f(bottom) = 0, f(top) = 1 and f isotone on every comparable pair."""
    bad = _boundary(f, tol)
    if bad is not None:
        return bad
    l = f.lattice
    for x, y in itertools.combinations(l.elements, 2):
        lo, hi = (x, y) if l.leq(x, y) else (y, x) if l.leq(y, x) else (None, None)
        if lo is not None and f[lo] > f[hi] + tol:
            return CheckResult(False, (lo, hi), f"f({lo}) = {f[lo]!r} > f({hi}) = {f[hi]!r}")
    return CheckResult(True)


def check_belief(f: SetFunction, tol: float = DEFAULT_TOL) -> CheckResult:
    """Boundary conditions plus a nonnegative Moebius transform."""
    bad = _boundary(f, tol)
    if bad is not None:
        return bad
    m = mobius_transform(f)
    worst = min(f.lattice.elements, key=lambda x: m[x])
    if m[worst] < -tol:
        return CheckResult(False, (worst,), f"negative Moebius mass m({worst}) = {m[worst]!r}")
    return CheckResult(True)


def _first_failing_family(f: SetFunction, k: int, fails, op: str) -> CheckResult:
    """First k-family (in input order) whose f(join) and alternating sum of f
    over the meets of its subfamilies satisfy ``fails``."""
    l = f.lattice
    fv = list(f.values.values())
    join_t, meet_t = l._join, l._meet
    for family in itertools.combinations(range(len(l)), k):
        top = family[0]
        for i in family[1:]:
            top = join_t[top][i]
        lhs, rhs = fv[top], 0.0
        for r in range(1, k + 1):
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


def check_k_monotone(f: SetFunction, k: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """f(join of the family) >= alternating sum of f over meets of subfamilies,
    for every family of k distinct elements.

    Families with repeated members collapse to smaller distinct families, so
    enumerating k-subsets loses nothing at this k.
    """
    if k < 2:
        raise ValueError("k-monotonicity is defined for k >= 2")
    return _first_failing_family(f, k, lambda lhs, rhs: lhs < rhs - tol, "<")


def check_k_valuation(f: SetFunction, k: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """The k-monotonicity inequality degenerates into an equality everywhere."""
    if k < 2:
        raise ValueError("k-valuations are defined for k >= 2")
    return _first_failing_family(f, k, lambda lhs, rhs: abs(lhs - rhs) > tol, "!=")


def _total_family_count(n: int) -> int:
    return sum(math.comb(n, k) for k in range(2, max(2, n - 2) + 1))


def check_total_monotone(
    f: SetFunction,
    tol: float = DEFAULT_TOL,
    max_families: int = DEFAULT_MAX_FAMILIES,
) -> CheckResult:
    """k-monotonicity for every k from 2 up to |L|-2, which suffices for all k."""
    n = len(f.lattice)
    if _total_family_count(n) > max_families:
        raise SizeLimitExceeded(
            f"{_total_family_count(n)} families exceed the cap of {max_families}"
        )
    for k in range(2, max(2, n - 2) + 1):
        res = check_k_monotone(f, k, tol)
        if not res:
            return CheckResult(False, res.witness, f"fails at k={k}: {res.detail}")
    return CheckResult(True)


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


def max_k_monotone(
    f: SetFunction,
    tol: float = DEFAULT_TOL,
    max_families: int = DEFAULT_MAX_FAMILIES,
):
    """The largest k for which f is k-monotone: "total" when every k up to
    |L|-2 passes, 1 when none does, None when the family cap prevents the
    sweep."""
    n = len(f.lattice)
    if _total_family_count(n) > max_families:
        return None
    passing = [k for k in range(2, max(2, n - 2) + 1) if check_k_monotone(f, k, tol)]
    if len(passing) == max(2, n - 2) - 1:
        return "total"
    return max(passing, default=1)


def capacity_report(
    f: SetFunction,
    tol: float = DEFAULT_TOL,
    max_families: int = DEFAULT_MAX_FAMILIES,
) -> CapacityCheckReport:
    """Assemble the one-shot report: capacity, belief and necessity checks
    plus the k-monotonicity sweep."""
    from .possibilistic import check_necessity

    cap = check_capacity(f, tol)
    bel = check_belief(f, tol)
    nec = check_necessity(f, tol)
    witness = next((r.witness for r in (cap, bel, nec) if not r.ok and r.witness is not None), None)
    return CapacityCheckReport(
        is_capacity=cap.ok,
        is_belief=bel.ok,
        is_necessity_hint=nec.ok,
        max_k_monotone=max_k_monotone(f, tol, max_families),
        failure_witness=witness,
    )
