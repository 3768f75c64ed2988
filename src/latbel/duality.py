"""Negations: bijections that turn joins into meets.

A vee-negation is a bijection n with n(x v y) = n(x) ^ n(y) and n(top) =
bottom; such a map exists exactly when the lattice is isomorphic to its own
order dual.  Negations need not be involutive and are rarely unique, so the
search below enumerates them in a canonical order: the partial map is
extended along the input element order, trying candidate images in input
order, which makes "the first negation" stable across runs.
"""

from __future__ import annotations

import itertools

from .capacity import CheckResult
from .errors import (
    InvalidNegation,
    NoConsistentExtension,
    NotABijection,
    NotDistributive,
    UnknownElement,
)
from .lattice import Lattice, _indices, eta, is_distributive, meet


class Negation:
    """A verified vee-negation (kind "vee") or its inverse wedge-negation
    (kind "wedge"), with the inverse bijection precomputed.

    The constructor is where every negation is verified: a vee map must pass
    :func:`verify_vee_negation`, a wedge map's inverse must.  Only the
    search, whose results are negations by construction, skips it.
    """

    __slots__ = ("lattice", "kind", "map", "inverse_map")

    def __init__(self, lattice: Lattice, mapping, kind: str = "vee", _verified: bool = False):
        if kind not in ("vee", "wedge"):
            raise ValueError(f"kind must be 'vee' or 'wedge', got {kind!r}")
        mapping = dict(mapping)
        if not _verified:
            res = _injective(lattice, mapping)
            if not res:
                raise NotABijection(res.detail)
            vee = mapping if kind == "vee" else {v: k for k, v in mapping.items()}
            res = verify_vee_negation(lattice, vee)
            if not res:
                raise InvalidNegation(res.detail)
        self.lattice = lattice
        self.kind = kind
        self.map = {x: mapping[x] for x in lattice.elements}
        self.inverse_map = {v: k for k, v in self.map.items()}

    def __call__(self, x: str) -> str:
        try:
            return self.map[x]
        except KeyError:
            raise UnknownElement(x) from None

    def inverse(self, x: str) -> str:
        try:
            return self.inverse_map[x]
        except KeyError:
            raise UnknownElement(x) from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Negation)
            and other.lattice is self.lattice
            and other.kind == self.kind
            and other.map == self.map
        )

    def __hash__(self):
        return hash((id(self.lattice), self.kind, tuple(sorted(self.map.items()))))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}->{v}" for k, v in self.map.items())
        return f"Negation[{self.kind}]({pairs})"


def verify_vee_negation(l: Lattice, mapping) -> CheckResult:
    """True iff the map is a bijection sending top to bottom that satisfies
    n(x v y) = n(x) ^ n(y) on all pairs; the witness names the first failure.

    Raises :class:`NotABijection` when the map is not even a total self-map
    of the element set.
    """
    mapping = dict(mapping)
    res = _injective(l, mapping)
    if not res:
        return res
    if mapping[l.top] != l.bottom:
        return CheckResult(False, (l.top,), f"n(top) = {mapping[l.top]!r}, expected bottom")
    names, index = l.elements, l.poset._index
    image = [index[mapping[x]] for x in names]
    join_t, meet_t = l._join, l._meet
    for i, j in itertools.combinations_with_replacement(range(len(names)), 2):
        lhs, rhs = image[join_t[i][j]], meet_t[image[i]][image[j]]
        if lhs != rhs:
            x, y, lhs, rhs = names[i], names[j], names[lhs], names[rhs]
            return CheckResult(False, (x, y), f"n({x} v {y}) = {lhs!r} but n({x}) ^ n({y}) = {rhs!r}")
    return CheckResult(True)


def _injective(l: Lattice, mapping: dict) -> CheckResult:
    """Whether the map is injective, the witness the first pair with one
    image; :class:`NotABijection` when it is not a total self-map."""
    for x in l.elements:
        if x not in mapping:
            raise NotABijection(f"map gives no image for {x!r}")
    for x, img in mapping.items():
        if x not in l:
            raise NotABijection(f"map defined on foreign element {x!r}")
        if img not in l:
            raise NotABijection(f"image {img!r} of {x!r} is not a lattice element")
    seen: dict[str, str] = {}
    for x in l.elements:
        img = mapping[x]
        if img in seen:
            return CheckResult(False, (seen[img], x), f"both map to {img!r}")
        seen[img] = x
    return CheckResult(True)


def negation_from_map(l: Lattice, mapping) -> Negation:
    """Verify a raw mapping and wrap it; raises InvalidNegation on failure."""
    return Negation(l, mapping, "vee")


def find_negations(l: Lattice, limit: int | None = 1) -> list[Negation]:
    """Enumerate vee-negations by backtracking over the cover structure.

    A negation is exactly an anti-automorphism, so candidate images must
    swap height with coheight and up-degree with down-degree; those pruning
    invariants only shrink the search.  Elements are assigned in input
    order, and image c fits element i iff the assigned images above c are
    exactly the images of the assigned elements below i, and likewise with
    above and below swapped.  Returns up to ``limit`` negations (all of them
    when limit is None); the empty list means the lattice is not autodual.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    p = l.poset
    n = len(p)
    names, down, up = p.elements, p._down, p._up
    candidates: dict[tuple, list[int]] = {}
    for c in range(n):
        key = (l._h[c], l._coh[c], len(p._cov_up[c]), len(p._cov_down[c]))
        candidates.setdefault(key, []).append(c)
    image_bit = [0] * n  # 1 << the image of each assigned element, 0 otherwise
    images = 0  # bitset of all assigned images

    def fits(i):
        key = (l._coh[i], l._h[i], len(p._cov_down[i]), len(p._cov_up[i]))
        assigned = (1 << i) - 1
        above = sum(map(image_bit.__getitem__, _indices(down[i] & assigned)))
        below = sum(map(image_bit.__getitem__, _indices(up[i] & assigned)))
        for c in candidates.get(key, ()):
            # an image already taken fails one of the two tests
            if up[c] & images == above and down[c] & images == below:
                yield c

    results: list[Negation] = []
    stack = [fits(0)]  # stack[i] yields the images that fit element i
    while stack:
        i = len(stack) - 1
        images ^= image_bit[i]  # release element i's image before its next try
        image_bit[i] = 0
        c = next(stack[i], None)
        if c is None:
            stack.pop()
            continue
        image_bit[i] = 1 << c
        images |= image_bit[i]
        if i + 1 < n:
            stack.append(fits(i + 1))
            continue
        mapping = {names[x]: names[image_bit[x].bit_length() - 1] for x in range(n)}
        results.append(Negation(l, mapping, "vee", _verified=True))
        if limit is not None and len(results) >= limit:
            break
    return results


def invert(n: Negation) -> Negation:
    """The inverse bijection, a meet-reversing (wedge) negation; applying
    invert twice returns the original."""
    flipped = "wedge" if n.kind == "vee" else "vee"
    return Negation(n.lattice, n.inverse_map, flipped, _verified=True)


def is_involutive(n: Negation) -> bool:
    """n composed with itself is the identity."""
    return all(n.map[n.map[x]] == x for x in n.lattice.elements)


def negation_from_irreducible_map(l: Lattice, jmap) -> Negation:
    """Extend a join-irreducible to meet-irreducible correspondence to the
    whole lattice via n(x) = meet of the images of eta(x).

    Requires a distributive lattice (decompositions are unique there) and an
    injective jmap into the meet-irreducibles; raises NoConsistentExtension
    when the induced map is not a vee-negation.
    """
    if not is_distributive(l):
        raise NotDistributive("irreducible extension requires a distributive lattice")
    jmap = dict(jmap)
    missing = [j for j in l.joinirr if j not in jmap]
    if missing:
        raise NotABijection(f"no image for join-irreducible {missing[0]!r}")
    meetirr = set(l.meetirr)
    images = []
    for j in l.joinirr:
        img = jmap[j]
        if img not in meetirr:
            raise NotABijection(f"image {img!r} of {j!r} is not meet-irreducible")
        images.append(img)
    if len(set(images)) != len(images):
        raise NotABijection("two join-irreducibles share one image")

    mapping = {}
    for x in l.elements:
        parts = [jmap[j] for j in sorted(eta(l, x), key=l.poset.index_of)]
        mapping[x] = meet(l, parts) if parts else l.top
    try:
        return Negation(l, mapping, "vee")
    except (InvalidNegation, NotABijection) as exc:
        raise NoConsistentExtension(str(exc)) from None
