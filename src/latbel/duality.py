"""Negations: bijections that turn joins into meets.

A vee-negation is a bijection n with n(x v y) = n(x) ^ n(y) and n(top) =
bottom; such a map exists exactly when the lattice is isomorphic to its own
order dual.  Negations need not be involutive and are rarely unique, so the
search below enumerates them in a canonical order: one loop extends the
partial map up the lattice's elements, which are numbered along a linear
extension (see ``lattice``), trying candidate images in that order, which
makes "the first negation" stable across runs.  Only join-irreducible
elements branch; every other element's image is forced by its lower covers'.

Like every validated structure in this package, a negation holds index
tuples only: its ``image`` in lattice element order.  The name dicts it hands
out are fresh copies, so writing into one changes nothing.
"""

from __future__ import annotations

import itertools

from .capacity import CheckResult
from .errors import (
    InvalidNegation,
    NoConsistentExtension,
    NotABijection,
    NotDistributive,
)
from .lattice import (Lattice, _bound, _incomparable_pairs, _indices, _join_index, _meet_index,
                      _names, _unions, is_distributive)
from .transforms import _inverse, _Vector


class Negation:
    """A verified vee-negation (kind "vee") or its inverse wedge-negation
    (kind "wedge"), held as ``image``: the index of each element's image,
    in lattice element order.  ``map`` and ``inverse_map`` return new dicts.

    The constructor is where every name-keyed map is verified: a vee map
    must pass :func:`verify_vee_negation`, a wedge map's inverse must.  The
    image tuples the search and :func:`invert` build, negations by
    construction, and the image :func:`negation_from_irreducible_map` has
    checked skip it.
    """

    __slots__ = ("lattice", "kind", "image")

    def __init__(self, lattice: Lattice, mapping, kind: str = "vee"):
        if kind not in ("vee", "wedge"):
            raise ValueError(f"kind must be 'vee' or 'wedge', got {kind!r}")
        if not isinstance(mapping, _Vector):
            mapping = _image_of(lattice, mapping)
            res = _injective(lattice, mapping)
            if not res:
                raise NotABijection(res.detail)
            res = _joins_to_meets(lattice, mapping if kind == "vee" else _inverse(mapping))
            if not res:
                raise InvalidNegation(res.detail)
        self.lattice = lattice
        self.kind = kind
        self.image = mapping

    @property
    def map(self) -> dict:
        """A new dict of element to image, in element order."""
        return dict(zip(self.lattice.elements, _names(self.lattice, *self.image)))

    @property
    def inverse_map(self) -> dict:
        """A new dict of element to preimage, in element order."""
        return invert(self).map

    def __call__(self, x: str) -> str:
        l = self.lattice
        return l.elements[self.image[l.index_of(x)]]

    def inverse(self, x: str) -> str:
        return invert(self)(x)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Negation)
            and other.lattice is self.lattice
            and other.kind == self.kind
            and other.image == self.image
        )

    def __hash__(self):
        return hash((id(self.lattice), self.kind, self.image))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}->{v}" for k, v in self.map.items())
        return f"Negation[{self.kind}]({pairs})"


def verify_vee_negation(l: Lattice, mapping) -> CheckResult:
    """True iff the map is a bijection sending top to bottom that satisfies
    n(x v y) = n(x) ^ n(y) on all pairs; the witness names the first failure.

    Such a bijection is exactly an anti-automorphism, and a bijection is one
    iff it maps the upper covers of each x onto the lower covers of n(x), so
    the covers decide; the pair scan runs only to name the first failing
    pair.  Raises :class:`NotABijection` when the map is not even a total
    self-map of the element set.
    """
    image = _image_of(l, mapping)
    return _injective(l, image) and _joins_to_meets(l, image)


def _image_of(l: Lattice, mapping) -> _Vector:
    """The index of each element's image under a name-keyed map, in element
    order; :class:`NotABijection` when the map is not a total self-map."""
    mapping = dict(mapping)
    for x in l.elements:
        if x not in mapping:
            raise NotABijection(f"map gives no image for {x!r}")
    for x, img in mapping.items():
        if x not in l:
            raise NotABijection(f"map defined on foreign element {x!r}")
        if img not in l:
            raise NotABijection(f"image {img!r} of {x!r} is not a lattice element")
    return _Vector(l._index[mapping[x]] for x in l.elements)


def _injective(l: Lattice, image) -> CheckResult:
    """Whether an index image is injective, the witness the first pair of
    elements with one image."""
    names, seen = l.elements, {}
    for x, img in enumerate(image):
        if img in seen:
            return CheckResult(False, (names[seen[img]], names[x]), f"both map to {names[img]!r}")
        seen[img] = x
    return CheckResult(True)


def _joins_to_meets(l: Lattice, image) -> CheckResult:
    """Whether an injective index image sends top to bottom and every join to the
    meet of the images, decided by the covers (:func:`verify_vee_negation`); else the
    first failing pair: i < j fails iff n(j) is not below n(i), read off the preimages
    of the images' down-sets, and the incomparable pairs before it one by one."""
    names, top = l.elements, len(l) - 1
    if image[top] != 0:  # the bottom
        return CheckResult(False, (l.top,), f"n(top) = {names[image[top]]!r}, expected bottom")
    lower = [set(c) for c in l._cov_down]
    if all({image[c] for c in ups} == lower[image[x]] for x, ups in enumerate(l._cov_up)):
        return CheckResult(True)
    below = _unions(range(len(l)), l._cov_down, [1 << i for i in _inverse(image)])  # n(j) <= c
    first = next(((i, (d & -d).bit_length() - 1) for i, u in enumerate(l._up)
                  if (d := u & ~below[image[i]])), (len(l), 0))
    for i, j in itertools.chain(itertools.takewhile(first.__gt__, _incomparable_pairs(l)), [first]):
        lhs, rhs = image[_join_index(l, i, j)], _meet_index(l, image[i], image[j])
        if lhs != rhs:
            x, y, lhs, rhs = names[i], names[j], names[lhs], names[rhs]
            return CheckResult(False, (x, y),
                               f"n({x} v {y}) = {lhs!r} but n({x}) ^ n({y}) = {rhs!r}")


def negation_from_map(l: Lattice, mapping) -> Negation:
    """Verify a raw mapping and wrap it; raises InvalidNegation on failure."""
    return Negation(l, mapping, "vee")


def find_negations(l: Lattice, limit: int | None = 1) -> list[Negation]:
    """The first ``limit`` of :func:`_negations` (all when None), ascending
    by image; the empty list means the lattice is not autodual."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    return list(itertools.islice(_negations(l), limit))


def _negations(l: Lattice):
    """Yield the vee-negations, by one backtracking loop over the elements.

    A negation is exactly an anti-automorphism, so a candidate image must
    lie in the element's class: height swapped with coheight, upper cover
    count with lower.  Elements are assigned in element order, a linear
    extension, trying candidate images in that order too.  When element i
    is reached, every element below it has an image and no element above
    it has one, so image c fits i iff the assigned images above c are
    exactly the images of the elements below i (``above_of[i]``, the union
    of those kept for its lower covers) and no assigned image lies below c.
    Both the elements and their candidates go up, so the leaves come in
    ascending (lexicographic) order of the image vector.

    Every negation sends a join-irreducible i, covering a alone, to a lower
    cover of n(a): those still free are its candidates, a bitset tried
    lowest first.  Every other image is forced: the bottom's is the top,
    and a join-reducible i is the join of any two of its lower covers a and
    b (a < a v b <= i, and a is covered by i), so it goes to n(a) ^ n(b),
    the highest bit of one AND of its lower covers' images' down-sets.  Any
    other image that fits i extends to no negation, so dropping it prunes
    only branches that end empty.  An element with candidates left goes on
    ``branches`` with the images taken before it; a dead end backs up to
    the latest one, which drops every image taken since, forced or not.
    """
    n, down, up, lower, upper, h, coh = len(l), l._down, l._up, l._cov_down, l._cov_up, l._h, l._coh
    image, above_of, cover_bits, branches = [0] * n, [0] * n, [0] * n, []
    images = i = 0  # the bitset of the images taken; the element to assign next
    while True:
        if i == n:
            yield Negation(l, _Vector(image), "vee")
            c, free = -1, 0
        elif len(covers := lower[i]) == 1:  # join-irreducible: a free lower cover of n(a)
            a = covers[0]
            above_of[i], c, free = above_of[a] | 1 << image[a], -1, cover_bits[image[a]]
            if not free:  # n(a)'s lower covers as a bitset, built once per image
                for b in lower[image[a]]:
                    free |= 1 << b
                cover_bits[image[a]] = free
            free &= ~images
        else:  # forced: the meet of the lower covers' images, the top for the bottom
            above, meet = 0, down[-1]
            for a in covers:
                c = image[a]
                above |= above_of[a] | 1 << c
                meet &= down[c]
            above_of[i], c, free = above, meet.bit_length() - 1, 0
        while not (c >= 0 and h[c] == coh[i] and coh[c] == h[i] and len(upper[c]) == len(lower[i])
                   and len(lower[c]) == len(upper[i])
                   and up[c] & images == above_of[i] and not down[c] & images):
            if not free:  # a dead end: back up to the latest element with candidates left
                if not branches:
                    return
                i, free, images = branches.pop()
            c = (free & -free).bit_length() - 1
            free &= free - 1
        if free:
            branches.append((i, free, images))
        image[i], images, i = c, images | 1 << c, i + 1


def invert(n: Negation) -> Negation:
    """The inverse bijection, a meet-reversing (wedge) negation; applying
    invert twice returns the original."""
    return Negation(n.lattice, _inverse(n.image), "wedge" if n.kind == "vee" else "vee")


def is_involutive(n: Negation) -> bool:
    """n composed with itself is the identity."""
    return n.image == invert(n).image


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
    for j in l.joinirr:
        if jmap[j] not in l or not l._mmask >> l._index[jmap[j]] & 1:
            raise NotABijection(f"image {jmap[j]!r} of {j!r} is not meet-irreducible")
    send = {l._index[j]: l._index[jmap[j]] for j in l.joinirr}  # as indices
    if len(set(send.values())) != len(send):
        raise NotABijection("two join-irreducibles share one image")

    image = _Vector(_bound(l, map(send.__getitem__, _indices(d & l._jmask)), len(l) - 1)
                    for d in l._down)
    res = _injective(l, image) and _joins_to_meets(l, image)
    if not res:
        raise NoConsistentExtension(res.detail)
    return Negation(l, image, "vee")
