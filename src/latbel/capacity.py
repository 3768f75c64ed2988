"""Recognizers for capacities, belief functions, k-monotone functions and
k-valuations, plus conjugation with respect to a negation.

Every check returns a :class:`CheckResult` that is truthy when the property
holds and otherwise carries the first counterexample found in element
order (see ``lattice``).  The k-family checks score a family by the
Moebius mass below its join and under no member (inclusion-exclusion): no
family fails without negative mass, and only antichains are enumerated.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .errors import InvalidNegation, SizeLimitExceeded
from .lattice import DEFAULT_MAX_FAMILIES, DEFAULT_TOL, _indices, _meet_index, _require_tol
from .transforms import SetFunction, _inverse, _Vector, mobius_transform


class CheckResult(namedtuple("CheckResult", "ok witness detail", defaults=(None, ""))):
    """A check's verdict, true when the property holds; else a witness and why."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


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
    l, fv = f.lattice, f.vector
    upto = [0.0] * len(fv)  # the largest value on each down-set
    for y in range(len(fv)):
        below = max(map(upto.__getitem__, l._cov_down[y]), default=-math.inf)
        if below > fv[y] + tol:
            return _isotone_scan(l, fv, tol)
        upto[y] = max(below, fv[y])
    return CheckResult(True)


def _isotone_scan(l, fv, tol) -> CheckResult:
    """The first comparable pair, in index order, with f(lower) > f(upper) + tol."""
    down = l._down
    for lo, hi in itertools.combinations(range(len(l)), 2):  # elements run up: lo is the lower
        if down[hi] >> lo & 1 and fv[lo] > fv[hi] + tol:
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
    low = min(m.vector)
    if low < -tol:
        worst = f.lattice.elements[m.vector.index(low)]
        return CheckResult(False, (worst,), f"negative Moebius mass m({worst}) = {low!r}"), m
    return CheckResult(True), m


def _sweep(f: SetFunction, k: int, tol: float, max_families: int, op: str = "<") -> CheckResult:
    """The first family of 2 to k distinct elements, smallest size first and
    in ``itertools.combinations`` order, whose f(join) is below (op "!=":
    differs from) the alternating sum of f over its subfamilies' meets."""
    _require_tol(tol)
    l, fails = f.lattice, {"<": lambda s: s < -tol, "!=": lambda s: abs(s) > tol}[op]
    m = list(mobius_transform(f).vector)
    m[0] = 0.0  # at bottom
    can_fail = fails(sum(v for v in m if v < 0)) or fails(sum(v for v in m if v > 0))
    risky = sum(1 << i for i, v in enumerate(m) if v < 0 or op == "!=" and v)
    n, down, up, pup, built = len(l), l._down, l._up, l._pup, 0
    for j in range(2, k + 1 if can_fail else 2):
        stack, found = [((), 0, 0, (1 << n) - 1)], False  # from bottom
        while stack:
            family, top, union, cand = stack.pop()
            up_top, ys = pup[top], _indices(cand)
            built += len(ys)  # families built, prefixes included, each size anew
            if built > max_families:
                raise SizeLimitExceeded(f"{built} families exceed the cap of {max_families}; "
                                        "raise it with --limit")
            if len(family) + 1 < j:  # extend by incomparable members of larger index
                stack += [(family + (y,), n - (up_top & pup[y]).bit_length(), union | down[y],
                           cand & ~(down[y] | up[y]) >> y + 1 << y + 1) for y in reversed(ys)]
                continue
            found = found or bool(ys)
            for y in ys:
                join = n - (up_top & pup[y]).bit_length()
                rest = down[join] & ~(union | down[y])  # below the join, under no member
                if rest & risky and fails(sum(map(m.__getitem__, _indices(rest)))):
                    return _witness(f, family + (y,), join, op)
        if not found:  # no antichain of j elements, so none larger
            break
    return CheckResult(True)


def _witness(f: SetFunction, family: tuple, top: int, op: str) -> CheckResult:
    l, fv, rhs = f.lattice, f.vector, 0.0  # in the oracle's order, digit for digit
    meet = functools.partial(_meet_index, l)
    for r in range(1, len(family) + 1):
        for sub in itertools.combinations(family, r):
            rhs += (1.0 if r % 2 else -1.0) * fv[functools.reduce(meet, sub)]
    return CheckResult(False, tuple(l.elements[i] for i in family),
                       f"f(join) = {fv[top]!r} {op} {rhs!r}")


def check_k_monotone(f: SetFunction, k: int, tol: float = DEFAULT_TOL,
                     max_families: int = DEFAULT_MAX_FAMILIES) -> CheckResult:
    """f(join) >= the alternating sum of f over the meets of subfamilies, for
    every family of k elements; repeats reduce this to 2 to k distinct ones."""
    if k < 2:
        raise ValueError("k-monotonicity is defined for k >= 2")
    return _sweep(f, k, tol, max_families)


def check_k_valuation(f: SetFunction, k: int, tol: float = DEFAULT_TOL,
                      max_families: int = DEFAULT_MAX_FAMILIES) -> CheckResult:
    """The k-monotonicity inequality degenerates into an equality everywhere."""
    if k < 2:
        raise ValueError("k-valuations are defined for k >= 2")
    return _sweep(f, k, tol, max_families, "!=")


def check_total_monotone(f: SetFunction, tol: float = DEFAULT_TOL,
                         max_families: int = DEFAULT_MAX_FAMILIES) -> CheckResult:
    """k-monotonicity for every k; on a capacity, exactly belief (the paper's theorem)."""
    res = _sweep(f, len(f.lattice), tol, max_families)
    return res or CheckResult(False, res.witness, f"fails at k={len(res.witness)}: {res.detail}")


def conjugate(f: SetFunction, n, variant: str) -> SetFunction:
    """x maps to 1 - f(n(x)) for variant "vee", 1 - f(n_inverse(x)) for "wedge"."""
    if variant not in ("vee", "wedge"):
        raise ValueError(f"variant must be 'vee' or 'wedge', got {variant!r}")
    if n.lattice is not f.lattice:
        raise InvalidNegation("negation and function live on different lattices")
    if n.kind != "vee":
        raise InvalidNegation("conjugation expects a join-reversing (vee) negation")
    send = n.image if variant == "vee" else _inverse(n.image)
    return SetFunction(f.lattice, _Vector(1.0 - f.vector[i] for i in send))


def max_k_monotone(f: SetFunction, tol: float = DEFAULT_TOL,
                   max_families: int = DEFAULT_MAX_FAMILIES):
    """The largest k for which f is k-monotone: "total" when every k passes,
    1 when k = 2 already fails, None when the family cap stops the sweep."""
    try:
        return _max_k(f, tol, max_families)
    except SizeLimitExceeded:
        return None


def _max_k(f: SetFunction, tol: float, max_families: int):
    res = _sweep(f, len(f.lattice), tol, max_families)
    return "total" if res else len(res.witness) - 1
