"""``structure``: build lattices from cover lists over a size ladder and run
the order-level analyses on each.

The lattice core and the negation search do nearly all the work here and
the function layers are idle, so a faster order core shows undiluted.
Every round rebuilds every lattice, so no cache carries over between
rounds.
"""

from __future__ import annotations

import random

import gen
import ref
from latbel import duality, lattice as lat, transforms

BOOLEAN = range(4, 10)           # B4 .. B9 (16 .. 512 elements)
CHAINS = (16, 32, 64, 128, 256)
DIAMONDS = (3, 5, 8, 16)
PARTITIONS = (4, 5)
RANDOM = (("rand64", 9, 61, 67), ("rand200", 11, 190, 210))  # name, order size, lattice size

PROFILE_MAX = 128          # profile runs on inputs up to this size ...
PROFILE_CHAIN_MAX = 64     # ... except chains, whose profile is 3 s at 128
DOWNSET_CHAIN_MAX = 128    # downset_lattice of the source chain poset
CHAINS_MAX_COUNT = 1000    # maximal_chains where the count is at most this
WARM_MAX = 128             # set-up builds every input up to this size once


def make_specs(seed: int) -> list[gen.Spec]:
    rng = random.Random(f"structure:{seed}")
    specs = [gen.boolean(k) for k in BOOLEAN]
    specs += [gen.chain(n) for n in CHAINS]
    specs += [gen.diamond(n) for n in DIAMONDS]
    specs += [gen.partition_lattice(n) for n in PARTITIONS]
    specs += [gen.random_downset_lattice(rng, *r) for r in RANDOM]
    return specs


class State:
    def __init__(self, seed, specs):
        self.seed = seed
        self.specs = specs
        self._models: dict[str, ref.Model] = {}
        self._facts: dict[tuple, object] = {}

    def model(self, spec) -> ref.Model:
        if spec.name not in self._models:
            self._models[spec.name] = ref.Model(spec)
        return self._models[spec.name]

    def fact(self, key, compute):
        """Reference values computed once per run, outside any timing."""
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]


class Structure:
    name = "structure"

    def setup(self, seed: int, tracer=None) -> State:
        specs = make_specs(seed)
        for s in specs:
            if len(s) <= WARM_MAX:
                if tracer is not None:
                    tracer.input = s.name
                lat.Lattice(lat.Poset(s.elements, s.covers))
        return State(seed, specs)

    def tasks(self, st: State, round_no: int, traced: bool = False) -> list:
        out = []
        for s in st.specs:
            out.append(lambda m, s=s: self._lattice_task(m, st, s, round_no))
            if s.poset_names is not None and not (
                    s.name.startswith("chain") and len(s) > DOWNSET_CHAIN_MAX):
                out.append(lambda m, s=s: self._downset_task(m, st, s, round_no))
        return out

    @staticmethod
    def _chains_wanted(s: gen.Spec) -> bool:
        count = s.expect.get("chains")
        return count is not None and count <= CHAINS_MAX_COUNT

    @staticmethod
    def _profile_wanted(s: gen.Spec) -> bool:
        limit = PROFILE_CHAIN_MAX if s.name.startswith("chain") else PROFILE_MAX
        return len(s) <= limit

    def _lattice_task(self, m, st: State, s: gen.Spec, round_no: int) -> None:
        rng = random.Random(f"check:{st.seed}:{round_no}:{s.name}")
        md = st.model(s)
        p = m.call("Poset", s.name, lat.Poset, s.elements, s.covers)
        m.check(lambda: len(p) == len(s) and set(p.covers) == md.cover_set,
                f"Poset {s.name}: elements or covers differ from the input")

        l = m.call("Lattice", s.name, lat.Lattice, p)
        m.check(lambda: l.bottom == md.bottom and l.top == md.top, f"Lattice {s.name}: bottom/top")
        pairs = md.pairs(rng)
        m.check(lambda: all(l.join(x, y) == md.join(x, y) and l.meet(x, y) == md.meet(x, y)
                    for x, y in pairs), f"Lattice {s.name}: join/meet table")
        m.check(lambda: len(l.joinirr) == s.expect["joinirr"],
                f"Lattice {s.name}: join-irreducible count")
        if s.family == "sets":
            m.check(lambda: sorted(l.joinirr) == sorted(md.joinirr()),
                    f"Lattice {s.name}: join-irreducibles against brute force")

        mu = m.call("mobius_function", s.name, transforms.mobius_function, l)
        m.check(lambda: mu.mu(md.bottom, md.top) == s.expect["mu"],
                f"mobius_function {s.name}: mu(bot, top)")
        if s.family == "sets":
            m.check(lambda: all(mu.mu(x, y) == md.sets_mu(x, y) for x, y in pairs if md.leq(x, y))
                    and all(mu.mu(y, x) == md.sets_mu(y, x) for x, y in pairs if md.leq(y, x)),
                    f"mobius_function {s.name}: mu on sampled intervals")

        negs = m.call("find_negations", s.name, duality.find_negations, l, limit=1)
        autodual = st.fact(("autodual", s.name), md.autodual)
        m.check(lambda: bool(negs) == autodual, f"find_negations {s.name}: existence")
        m.check(lambda: all(md.reverses_order(n.map, rng) for n in negs),
                f"find_negations {s.name}: order reversal")

        if self._chains_wanted(s):
            chains = m.call("maximal_chains", s.name, lat.maximal_chains, l)
            m.check(lambda: len(chains) == s.expect["chains"] and len(set(chains)) == len(chains)
                    and all(md.is_maximal_chain(c) for c in chains),
                    f"maximal_chains {s.name}: count or shape")

        if self._profile_wanted(s):
            prof = m.call("profile", s.name, lat.profile, l)
            flags = prof.flags()
            want = dict(s.expect["flags"])
            want.setdefault("is_autodual", autodual)
            bad = [k for k, v in want.items() if flags[k] != v]
            m.check(lambda: not bad, f"profile {s.name}: flags {bad}")

    def _downset_task(self, m, st: State, s: gen.Spec, round_no: int) -> None:
        rng = random.Random(f"check-d:{st.seed}:{round_no}:{s.name}")
        src = m.call("Poset", s.name, lat.Poset, s.poset_names, s.poset_covers)
        dl = m.call("downset_lattice", s.name, lat.downset_lattice, src)
        l = dl.lattice
        if len(s.poset_names) <= 16:
            size = st.fact(("size", s.name), st.model(s).brute_force_size)
        else:
            size = s.expect["size"]
        m.check(lambda: len(l) == size, f"downset_lattice {s.name}: size")
        m.check(lambda: len(l.joinirr) == len(s.poset_names),
                f"downset_lattice {s.name}: join-irreducible count")
        members = dl.downset
        m.check(lambda: all(members[l.join(x, y)] == members[x] | members[y]
                    and members[l.meet(x, y)] == members[x] & members[y]
                    for x, y in ref.sample_pairs(list(l.elements), rng)),
                f"downset_lattice {s.name}: join is union, meet is intersection")
        pd, pn = s.poset_down, s.poset_names
        m.check(lambda: all(members[dl.principal[x]] == {pn[j] for j in gen.bits(pd[i])} | {x}
                    for i, x in enumerate(pn)),
                f"downset_lattice {s.name}: principal downsets")
