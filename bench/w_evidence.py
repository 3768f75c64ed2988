"""``evidence``: a seeded stream of belief-function operations on lattices
built once in set-up.

Lattice construction, Moebius coefficients and negations are all set-up
work, so the transforms, capacity, evidence and possibilistic layers do the
work here.  A change to the order core should leave this workload's
timings unchanged; a faster transform should show here alone.
"""

from __future__ import annotations

import random

import gen
import ref
from harness import Meter, run_round
from latbel import capacity, duality, evidence, lattice as lat, possibilistic, transforms

KMONO2_MAX = 64       # check_k_monotone(k=2) on lattices up to this size
KMONO3_MAX = 16       # k=3
TOTAL_MAX = 10        # check_total_monotone
RECONSTRUCT_MAX = 64  # reconstruct_chain: its first call on a lattice runs the
                      # cubic distributivity check (18 s on B8), which set-up
                      # warms only where that is cheap
EVAL_POINTS = 8       # eval_possibility calls per lattice and round
SPARSE_FOCAL = 3      # focal elements of a sparse mass, besides the top


class Prepared:
    """One lattice with its reference model and its seeded inputs, as plain
    dicts (for the checks) and as latbel objects (for the operations)."""

    def __init__(self, spec: gen.Spec, rng: random.Random, tracer):
        if tracer is not None:
            tracer.input = spec.name
        self.spec, self.name = spec, spec.name
        self.md = md = ref.Model(spec)
        self.l = l = lat.Lattice(lat.Poset(spec.elements, spec.covers))
        transforms.mobius_function(l)
        self.autodual = md.autodual()
        self.neg = duality.find_negations(l, limit=1)[0] if self.autodual else None

        self.m = gen.random_mass(rng, spec, top_min=0.1)
        self.m_dense2 = gen.random_mass(rng, spec, top_min=0.1)
        self.m_sparse = [gen.random_mass(rng, spec, SPARSE_FOCAL, top_min=0.1) for _ in range(2)]
        self.bel = md.zeta(self.m)
        self.q = md.commonality(self.m)
        self.nec = md.zeta(gen.chain_mass(rng, spec))
        mass = evidence.MassAllocation
        self.m_obj = mass(l, self.m)
        self.pairs = {
            "dense": (self.m_obj, mass(l, self.m_dense2)),
            "sparse": tuple(mass(l, v) for v in self.m_sparse),
        }
        self.pair_q = {
            "dense": (self.q, md.commonality(self.m_dense2)),
            "sparse": tuple(md.commonality(v) for v in self.m_sparse),
        }
        self.bel_obj = transforms.SetFunction(l, self.bel)
        self.nec_obj = transforms.SetFunction(l, self.nec)
        self.pos = self.pos_obj = self.pi = self.pi_obj = None
        if self.neg is not None:
            self.pos = {x: 1.0 - self.nec[self.neg.map[x]] for x in spec.elements}
            self.pos_obj = transforms.SetFunction(l, self.pos)
            self.pi = gen.possibility(rng, spec, md.down, gen.join_irreducibles(spec))
            self.pi_obj = possibilistic.PossibilityDistribution(l, self.pi)
            self.eval_at = rng.sample(spec.elements, EVAL_POINTS)
        self._facts: dict = {}

    def fact(self, key, compute):
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]


def make_specs(seed: int) -> tuple[list[gen.Spec], random.Random]:
    rng = random.Random(f"evidence:{seed}")
    specs = [gen.boolean(8), gen.reference18(),
             gen.random_downset_lattice(rng, "rand200", 11, 190, 210),
             gen.partition_lattice(5), gen.chain(128),
             # small lattices for the k-monotone and total-monotone checks
             gen.boolean(4), gen.boolean(3)]
    return specs, rng


class Evidence:
    name = "evidence"

    def setup(self, seed: int, tracer=None) -> list[Prepared]:
        specs, rng = make_specs(seed)
        prepared = [Prepared(s, rng, tracer) for s in specs]
        # Warm-up: one untimed round fills every lazy cache the operations
        # use (Moebius matrices, the distributivity flag reconstruct needs).
        run_round(self.tasks(prepared, -1), Meter(warmup=True), seed, -1)
        return prepared

    def tasks(self, prepared: list[Prepared], round_no: int, traced: bool = False) -> list:
        out = []
        for p in prepared:
            out += [lambda m, p=p: _transforms(m, p), lambda m, p=p: _comobius(m, p)]
            for kind in ("sparse", "dense"):
                for policy in evidence.COMBINE_POLICIES:
                    out.append(lambda m, p=p, k=kind, pol=policy: _combine(m, p, k, pol))
            out += [lambda m, p=p: _capacity(m, p), lambda m, p=p: _necessity(m, p),
                    lambda m, p=p: _decompose(m, p)]
            n = len(p.spec)
            if n <= KMONO2_MAX:
                out.append(lambda m, p=p: _kmono(m, p, 2))
            if n <= KMONO3_MAX:
                out.append(lambda m, p=p: _kmono(m, p, 3))
            if n <= TOTAL_MAX:
                out.append(lambda m, p=p: _total(m, p))
            if p.neg is not None:
                out += [lambda m, p=p: _conjugate(m, p)]
                out += [lambda m, p=p, x=x: _eval(m, p, x) for x in p.eval_at]
                if n <= RECONSTRUCT_MAX:
                    out.append(lambda m, p=p: _reconstruct(m, p))
        return out


def _transforms(m, p: Prepared):
    bel = m.call("zeta_transform", p.name, transforms.zeta_transform, p.m_obj)
    m.check(lambda: ref.close(bel.values, p.bel),
            f"zeta_transform {p.name}: differs from direct sums")
    back = m.call("mobius_transform", p.name, transforms.mobius_transform, bel)
    m.check(lambda: ref.close(back.values, p.m),
            f"mobius_transform {p.name}: zeta o mobius is not the identity")


def _comobius(m, p: Prepared):
    q = m.call("comobius_transform", p.name, transforms.comobius_transform, p.m_obj)
    m.check(lambda: ref.close(q.values, p.q),
            f"comobius_transform {p.name}: differs from up-set sums")
    back = m.call("mass_from_comobius", p.name, transforms.mass_from_comobius, q)
    m.check(lambda: ref.close(back.values, p.m), f"mass_from_comobius {p.name}: does not invert")


def _combine(m, p: Prepared, kind: str, policy: str):
    m1, m2 = p.pairs[kind]
    out = m.call("combine", p.name, evidence.combine, m1, m2, policy)
    q1, q2 = p.pair_q[kind]
    m.check(lambda: ref.combination_holds(p.md, out.values, q1, q2, policy),
            f"combine {policy} {kind} {p.name}: commonality is not the (rescaled) product")


def _capacity(m, p: Prepared):
    res = m.call("check_capacity", p.name, capacity.check_capacity, p.bel_obj)
    m.check(lambda: res.ok == p.fact("isotone", lambda: p.md.is_isotone(p.bel)),
            f"check_capacity {p.name}: verdict")
    res = m.call("check_belief", p.name, capacity.check_belief, p.bel_obj)
    m.check(lambda: res.ok,
            f"check_belief {p.name}: rejects the zeta transform of a nonnegative mass")


def _necessity(m, p: Prepared):
    for label, f, vals in (("chain-supported", p.nec_obj, p.nec), ("dense", p.bel_obj, p.bel)):
        res = m.call("check_necessity", p.name, possibilistic.check_necessity, f)
        m.check(lambda: res.ok == p.fact(("min", label), lambda: p.md.is_min_meet(vals)),
                f"check_necessity {p.name} {label}: verdict")
    if p.pos_obj is not None:
        res = m.call("check_possibility", p.name, possibilistic.check_possibility, p.pos_obj)
        m.check(lambda: res.ok == p.fact("max", lambda: p.md.is_max_join(p.pos)),
                f"check_possibility {p.name}: verdict")


def _decompose(m, p: Prepared):
    w = m.call("decompose", p.name, evidence.decompose, p.bel_obj)
    m.check(lambda: ref.weights_reproduce(p.md, dict(w.items()), p.q),
            f"decompose {p.name}: weights do not reproduce the commonality")
    back = m.call("recombine", p.name, evidence.recombine, w)
    m.check(lambda: ref.close(back.values, p.m, ref.ROUND_TRIP_TOL),
            f"recombine {p.name}: recombine o decompose is not the identity")


def _kmono(m, p: Prepared, k: int):
    res = m.call("check_k_monotone", p.name, capacity.check_k_monotone, p.bel_obj, k)
    m.check(lambda: res.ok, f"check_k_monotone {k} {p.name}: rejects a belief function")


def _total(m, p: Prepared):
    res = m.call("check_total_monotone", p.name, capacity.check_total_monotone, p.bel_obj)
    m.check(lambda: res.ok, f"check_total_monotone {p.name}: rejects a belief function")


def _negation_reverses(p: Prepared) -> bool:
    """The negation behind ``pos``, ``conjugate`` and ``reconstruct_chain``
    reverses the order of the benchmark's own closure."""
    return p.fact("negation", lambda: p.md.reverses_order(
        p.neg.map, random.Random(f"check-neg:{p.name}")))


def _conjugate(m, p: Prepared):
    c = m.call("conjugate", p.name, capacity.conjugate, p.nec_obj, p.neg, "vee")
    m.check(lambda: _negation_reverses(p), f"find_negations {p.name}: order reversal")
    m.check(lambda: ref.close(c.values, p.pos), f"conjugate {p.name}: not 1 - f(n(x))")
    back = m.call("conjugate", p.name, capacity.conjugate, c, p.neg, "wedge")
    m.check(lambda: ref.close(back.values, p.nec),
            f"conjugate {p.name}: vee then wedge is not the identity")


def _eval(m, p: Prepared, x: str):
    v = m.call("eval_possibility", p.name, possibilistic.eval_possibility, p.pi_obj, x)
    m.check(lambda: v == max((p.pi[j] for j in p.md.joinirr() if p.md.leq(j, x)), default=0.0),
            f"eval_possibility {p.name}: value at {x}")


def _reconstruct(m, p: Prepared):
    fc = m.call("reconstruct_chain", p.name, possibilistic.reconstruct_chain, p.l, p.neg, p.pi)
    m.check(lambda: _negation_reverses(p), f"find_negations {p.name}: order reversal")
    m.check(lambda: ref.chain_reproduces(p.md, fc.chain, fc.mass.values, p.neg.map, p.pi),
            f"reconstruct_chain {p.name}: not a focal chain reproducing pi")
