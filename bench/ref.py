"""Independent reference checks for the benchmark's outputs.

Nothing here calls latbel.  The order comes from the benchmark's own
closure of the generated covers; joins and meets come from each family's
own arithmetic (union and intersection of downsets, coarsening and
refinement of partitions, the closed form of M_n); invariants come from
closed forms or brute-force counts.
"""

from __future__ import annotations

import itertools
import random

import gen

TOL = 1e-9            # sums and differences of at most a few hundred terms
ROUND_TRIP_TOL = 1e-7  # products of many weights in decompose/recombine


class Model:
    """Reference view of one generated lattice."""

    def __init__(self, spec: gen.Spec):
        self.spec = spec
        self.names = spec.elements
        self.index = {x: i for i, x in enumerate(spec.elements)}
        self.down, self.up = gen.closure(spec)
        self.cover_set = set(spec.covers)
        self.bottom, self.top = spec.elements[0], spec.elements[-1]
        if spec.family == "sets":
            self._by_mask = {m: i for i, m in enumerate(spec.masks)}
        elif spec.family == "partition":
            self._by_blocks = {b: i for i, b in enumerate(spec.blocks)}
        self._joinirr = None

    def leq(self, x: str, y: str) -> bool:
        return bool(self.down[self.index[y]] >> self.index[x] & 1)

    def join(self, x: str, y: str) -> str:
        i, j = self.index[x], self.index[y]
        fam = self.spec.family
        if fam == "sets":
            return self.names[self._by_mask[self.spec.masks[i] | self.spec.masks[j]]]
        if fam == "partition":
            return self.names[self._by_blocks[_coarsen(self.spec.blocks[i], self.spec.blocks[j])]]
        return _diamond_op(x, y, self.top, self.bottom)

    def meet(self, x: str, y: str) -> str:
        i, j = self.index[x], self.index[y]
        fam = self.spec.family
        if fam == "sets":
            return self.names[self._by_mask[self.spec.masks[i] & self.spec.masks[j]]]
        if fam == "partition":
            return self.names[self._by_blocks[_refine(self.spec.blocks[i], self.spec.blocks[j])]]
        return _diamond_op(x, y, self.bottom, self.top)

    def joinirr(self) -> list:
        """Join-irreducibles by brute force: for downset lattices, the sets
        that differ from the union of all strictly smaller sets; otherwise
        the elements with exactly one lower cover."""
        if self._joinirr is None:
            if self.spec.family == "sets":
                masks = self.spec.masks
                out = []
                for i, x in enumerate(self.names):
                    union = 0
                    for j in gen.bits(self.down[i] & ~(1 << i)):
                        union |= masks[j]
                    if masks[i] and union != masks[i]:
                        out.append(x)
                self._joinirr = out
            else:
                self._joinirr = gen.join_irreducibles(self.spec)
        return self._joinirr

    def pairs(self, rng: random.Random):
        return sample_pairs(self.names, rng)

    # -- functions ----------------------------------------------------------

    def zeta(self, m: dict) -> dict:
        return gen.zeta(self.spec, self.down, m)

    def commonality(self, m: dict) -> dict:
        return gen.commonality(self.spec, self.up, m)

    def is_isotone(self, f: dict) -> bool:
        return all(f[lo] <= f[up] + TOL for lo, up in self.spec.covers)

    def is_min_meet(self, f: dict) -> bool:
        return all(abs(f[self.meet(x, y)] - min(f[x], f[y])) <= TOL
                   for x, y in itertools.combinations(self.names, 2))

    def is_max_join(self, f: dict) -> bool:
        return all(abs(f[self.join(x, y)] - max(f[x], f[y])) <= TOL
                   for x, y in itertools.combinations(self.names, 2))

    def is_2_valuation(self, f: dict) -> bool:
        return all(abs(f[self.join(x, y)] + f[self.meet(x, y)] - f[x] - f[y]) <= TOL
                   for x, y in itertools.combinations(self.names, 2))

    def reverses_order(self, mapping: dict, rng: random.Random) -> bool:
        """A bijection onto the elements with x <= y exactly when n(y) <= n(x)."""
        if sorted(mapping) != sorted(self.names) or sorted(mapping.values()) != sorted(self.names):
            return False
        if mapping[self.top] != self.bottom:
            return False
        return all(self.leq(x, y) == self.leq(mapping[y], mapping[x])
                   and self.leq(y, x) == self.leq(mapping[x], mapping[y])
                   for x, y in self.pairs(rng))

    def is_maximal_chain(self, chain) -> bool:
        """bottom-to-top sequence where each element covers the previous one."""
        return (len(chain) >= 1 and chain[0] == self.bottom and chain[-1] == self.top
                and all((a, b) in self.cover_set for a, b in zip(chain, chain[1:])))

    # -- closed forms and brute-force counts ----------------------------------

    def brute_force_size(self) -> int:
        """Number of downsets of the source poset, over all of its subsets."""
        pd = self.spec.poset_down
        n = len(pd)
        return sum(1 for s in range(1 << n)
                   if all(pd[i] & ~s == 0 for i in range(n) if s >> i & 1))

    def sets_mu(self, x: str, y: str) -> int:
        """mu(x, y) in a downset lattice: (-1)^|y - x| when y - x is an
        antichain of the source poset, else 0 (x <= y)."""
        diff = self.spec.masks[self.index[y]] & ~self.spec.masks[self.index[x]]
        pd = self.spec.poset_down
        for i in gen.bits(diff):
            if pd[i] & diff:
                return 0
        return (-1) ** bin(diff).count("1")

    def poset_is_self_dual(self) -> bool:
        """Whether the source poset is isomorphic to its order dual: a
        bijection f with x < y exactly when f(y) < f(x), by backtracking."""
        down = self.spec.poset_down
        n = len(down)
        up = [sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n)]
        size = [(bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(n)]
        image = [-1] * n
        used = [False] * n

        def extend(i: int) -> bool:
            if i == n:
                return True
            for c in range(n):
                if used[c] or size[c] != size[i][::-1]:
                    continue
                if all((down[i] >> j & 1) == (down[image[j]] >> c & 1)
                       and (down[j] >> i & 1) == (down[c] >> image[j] & 1) for j in range(i)):
                    image[i], used[c] = c, True
                    if extend(i + 1):
                        return True
                    image[i], used[c] = -1, False
            return False

        return extend(0)

    def autodual(self) -> bool:
        if "autodual" in self.spec.expect:
            return self.spec.expect["autodual"]
        return self.poset_is_self_dual()


def sample_pairs(names: list, rng: random.Random, cap: int = 4096) -> list:
    """All unordered pairs when there are at most ``cap``, else ``cap``
    seeded ones."""
    n = len(names)
    if n * (n - 1) // 2 <= cap:
        return list(itertools.combinations(names, 2))
    return [tuple(rng.sample(names, 2)) for _ in range(cap)]


def _coarsen(a: frozenset, b: frozenset) -> frozenset:
    """Finest common coarsening: merge blocks that share an element."""
    blocks = [set(x) for x in a]
    for other in b:
        hit = [blk for blk in blocks if blk & other]
        merged = set(other).union(*hit)
        blocks = [blk for blk in blocks if not blk & other] + [merged]
    return frozenset(frozenset(x) for x in blocks)


def _refine(a: frozenset, b: frozenset) -> frozenset:
    """Coarsest common refinement: nonempty intersections of blocks."""
    return frozenset(frozenset(x & y) for x in a for y in b if x & y)


def _diamond_op(x, y, absorbing, neutral):
    if x == y or y == neutral:
        return x
    if x == neutral:
        return y
    return absorbing


def close(a: dict, b: dict, tol: float = TOL) -> bool:
    return a.keys() == b.keys() and all(abs(a[k] - b[k]) <= tol for k in a)


def combination_holds(md: Model, out: dict, q1: dict, q2: dict, policy: str) -> bool:
    """raw: commonality q1*q2 everywhere.  zero-bottom: nothing at bottom and
    q1*q2 off bottom.  normalize: nothing at bottom, total 1, and q1*q2 off
    bottom rescaled by one constant 1/(1 - conflict)."""
    q = md.commonality(out)
    if policy == "raw":
        return all(abs(q[x] - q1[x] * q2[x]) <= TOL for x in q)
    if out[md.bottom] != 0.0:
        return False
    scale = 1.0
    if policy == "normalize":
        scale = q[md.top] / (q1[md.top] * q2[md.top])
        if scale < 1.0 - TOL or abs(sum(out.values()) - 1.0) > TOL:
            return False
    return all(abs(q[x] - scale * q1[x] * q2[x]) <= TOL for x in q if x != md.bottom)


def weights_reproduce(md: Model, weights: dict, q: dict) -> bool:
    """Recombination on the commonality side: q(x) is the product of w(y)
    over the foci y not above x."""
    for x in md.names:
        prod = 1.0
        for y, wy in weights.items():
            if not md.leq(x, y):
                prod *= wy
        if abs(prod - q[x]) > ROUND_TRIP_TOL:
            return False
    return True


def chain_reproduces(md: Model, chain, mass: dict, neg: dict, pi: dict) -> bool:
    """A maximal chain (bottom omitted) carrying a distribution, with
    1 - bel(n(j)) = pi(j) on every join-irreducible j."""
    full = {x: mass.get(x, 0.0) for x in md.names}
    bel = md.zeta(full)
    return (md.is_maximal_chain([md.bottom, *chain])
            and all(v >= -TOL for v in mass.values())
            and abs(sum(mass.values()) - 1.0) <= TOL
            and all(abs(1.0 - bel[neg[j]] - v) <= TOL for j, v in pi.items()))
