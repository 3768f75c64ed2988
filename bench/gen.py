"""Seeded inputs for the benchmark, built without calling latbel.

Every lattice comes as a ``Spec``: element names in input order (bottom
first), irredundant cover pairs, and the data the reference checks in
``ref.py`` need to recompute joins, meets and closed-form invariants on
their own.  Three families carry their own arithmetic:

  sets       downset lattices of a source poset, one bitmask per element
             (Boolean lattices and chains are the downset lattices of an
             antichain and of a chain); join is union, meet intersection
  partition  the partition lattice of {1..n} under refinement
  diamond    M_n, n atoms between a bottom and a top

Rebuild the ``cli`` input files for one seed with

    python3 bench/gen.py --seed 7 --out .bench_work/cli
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field


@dataclass
class Spec:
    name: str
    family: str
    elements: list
    covers: list                      # (lower, upper) name pairs
    masks: list | None = None         # sets: member bitmask per element
    poset_down: list | None = None    # sets: strict lower bitmask per poset element
    poset_names: list | None = None   # sets: source poset element names
    poset_covers: list | None = None  # sets: source poset covers (names)
    blocks: list | None = None        # partition: frozenset of frozensets per element
    expect: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.elements)


# -- closed forms --------------------------------------------------------------

def boolean(k: int) -> Spec:
    """B_k: all subsets of k atoms, listed by bitmask."""
    names = [f"b{m:0{k}b}" for m in range(1 << k)]
    covers = [(names[m], names[m | 1 << i]) for m in range(1 << k) for i in range(k)
              if not m >> i & 1]
    return Spec(
        name=f"bool{k}", family="sets", elements=names, covers=covers,
        masks=list(range(1 << k)), poset_down=[0] * k,
        poset_names=[f"a{i}" for i in range(k)], poset_covers=[],
        expect={"mu": (-1) ** k, "chains": math.factorial(k), "joinirr": k,
                "size": 1 << k, "autodual": True,
                "flags": {"is_distributive": True, "is_modular": True,
                          "is_complemented": True, "is_atomistic": True,
                          "is_ranked": True, "is_autodual": True,
                          "is_linear": k <= 1}},
    )


def chain(n: int) -> Spec:
    """The n-element chain: downsets of a chain of n - 1 poset elements."""
    names = [f"c{i}" for i in range(n)]
    return Spec(
        name=f"chain{n}", family="sets", elements=names,
        covers=list(zip(names, names[1:])),
        masks=[(1 << i) - 1 for i in range(n)],
        poset_down=[(1 << i) - 1 for i in range(n - 1)],
        poset_names=[f"p{i}" for i in range(n - 1)],
        poset_covers=[(f"p{i}", f"p{i + 1}") for i in range(n - 2)],
        expect={"mu": {1: 1, 2: -1}.get(n, 0), "chains": 1, "joinirr": n - 1,
                "size": n, "autodual": True,
                "flags": {"is_linear": True, "is_distributive": True,
                          "is_ranked": True, "is_autodual": True,
                          "is_complemented": n <= 2}},
    )


def diamond(n: int) -> Spec:
    """M_n: n pairwise incomparable atoms between bottom and top."""
    atoms = [f"m{i}" for i in range(n)]
    covers = [("bot", a) for a in atoms] + [(a, "top") for a in atoms]
    return Spec(
        name=f"m{n}", family="diamond", elements=["bot", *atoms, "top"], covers=covers,
        expect={"mu": n - 1, "chains": n, "joinirr": n, "size": n + 2, "autodual": True,
                "flags": {"is_modular": True, "is_complemented": True,
                          "is_distributive": n < 3, "is_autodual": True}},
    )


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] | {first}] + p[i + 1:]
        yield p + [frozenset({first})]


def partition_name(blocks) -> str:
    return "|".join(sorted("".join(str(e) for e in sorted(b)) for b in blocks))


def partition_lattice(n: int) -> Spec:
    """Pi_n ordered by refinement: the discrete partition is bottom and a
    cover merges two blocks."""
    parts = [frozenset(frozenset(b) for b in p) for p in _set_partitions(list(range(1, n + 1)))]
    parts.sort(key=lambda p: (-len(p), partition_name(p)))
    names = [partition_name(p) for p in parts]
    covers = []
    for p, name in zip(parts, names):
        bl = sorted(p, key=sorted)
        for a, b in itertools.combinations(range(len(bl)), 2):
            merged = [x for i, x in enumerate(bl) if i not in (a, b)] + [bl[a] | bl[b]]
            covers.append((name, partition_name(merged)))
    return Spec(
        name=f"pi{n}", family="partition", elements=names, covers=covers, blocks=parts,
        expect={"mu": (-1) ** (n - 1) * math.factorial(n - 1),
                "chains": math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1),
                "joinirr": n * (n - 1) // 2, "size": len(parts), "autodual": False,
                "flags": {"is_upper_semimodular": True, "is_atomistic": True,
                          "is_modular": n < 4, "is_autodual": n < 4}},
    )


# -- downset lattices of posets -------------------------------------------------

def _downsets(pdown: list[int], limit: int | None = None) -> list[int] | None:
    """Every downset of the poset as a bitmask (None once ``limit`` is passed)."""
    n = len(pdown)
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for i in range(n):
            if not d >> i & 1 and pdown[i] & ~d == 0:
                nd = d | 1 << i
                if nd not in seen:
                    seen.add(nd)
                    if limit is not None and len(seen) > limit:
                        return None
                    stack.append(nd)
    return sorted(seen, key=lambda d: (bin(d).count("1"), d))


def downset_spec(name: str, pnames: list[str], pcovers: list, expect=None) -> Spec:
    """The lattice of downsets of a poset given by names and covers."""
    index = {x: i for i, x in enumerate(pnames)}
    n = len(pnames)
    below = [0] * n
    for lo, up in pcovers:
        below[index[up]] |= 1 << index[lo]
    pdown = _strict_closure(below)
    sets = _downsets(pdown)
    width = max(1, (n + 3) // 4)
    names = [f"d{d:0{width}x}" for d in sets]
    covers = [(names[k], f"d{d | 1 << i:0{width}x}") for k, d in enumerate(sets)
              for i in range(n) if not d >> i & 1 and pdown[i] & ~d == 0]
    antichain = all(v == 0 for v in pdown)
    exp = {"mu": (-1) ** n if antichain else 0, "joinirr": n,
           "flags": {"is_distributive": True, "is_modular": True, "is_ranked": True}}
    exp.update(expect or {})
    return Spec(name=name, family="sets", elements=names, covers=covers, masks=sets,
                poset_down=pdown, poset_names=list(pnames), poset_covers=list(pcovers),
                expect=exp)


def _strict_closure(below: list[int]) -> list[int]:
    """Strict down-closure of a DAG given as direct-predecessor bitmasks."""
    n = len(below)
    out = list(below)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = out[i]
            m = acc
            while m:
                low = m & -m
                acc |= out[low.bit_length() - 1]
                m ^= low
            if acc != out[i]:
                out[i] = acc
                changed = True
    return out


def random_poset(rng: random.Random, n: int, p: float):
    """Random order on p0..p{n-1}, compatible with index order, as covers."""
    below = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                below[j] |= 1 << i
    down = _strict_closure(below)
    names = [f"p{i}" for i in range(n)]
    covers = []
    for j in range(n):
        m = down[j]
        for i in range(n):
            # i < j is a cover when nothing strictly between them
            if m >> i & 1 and not any(m >> z & 1 and down[z] >> i & 1 for z in range(n)):
                covers.append((names[i], names[j]))
    return names, covers, down


def random_downset_lattice(rng: random.Random, name: str, n: int, lo: int, hi: int) -> Spec:
    """Downset lattice of a random order on n elements, resampled until its
    size lies in [lo, hi] so that the work per input barely varies between
    seeds."""
    while True:
        names, covers, down = random_poset(rng, n, rng.uniform(0.05, 0.4))
        sets = _downsets(down, limit=hi)
        if sets is not None and len(sets) >= lo:
            return downset_spec(name, names, covers)


def reference18() -> Spec:
    """The paper's 18-element lattice: downsets of a 2-chain a < b beside the
    diamond c < d, e < f."""
    return downset_spec("ref18", list("abcdef"),
                        [("a", "b"), ("c", "d"), ("c", "e"), ("d", "f"), ("e", "f")],
                        {"size": 18, "autodual": True})


# -- functions on lattices ------------------------------------------------------

def closure(spec: Spec):
    """Down- and up-set bitmasks (reflexive) of every element, from the covers."""
    index = {x: i for i, x in enumerate(spec.elements)}
    n = len(spec.elements)
    preds = [[] for _ in range(n)]
    for lo, up in spec.covers:
        preds[index[up]].append(index[lo])
    order = _topological(n, preds)
    down = [0] * n
    for i in order:
        acc = 1 << i
        for p in preds[i]:
            acc |= down[p]
        down[i] = acc
    up = [0] * n
    for i in range(n):
        m = down[i]
        while m:
            low = m & -m
            up[low.bit_length() - 1] |= 1 << i
            m ^= low
    return down, up


def _topological(n, preds):
    succ = [[] for _ in range(n)]
    indeg = [len(p) for p in preds]
    for i, ps in enumerate(preds):
        for p in ps:
            succ[p].append(i)
    ready = [i for i in range(n) if indeg[i] == 0]
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for s in succ[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != n:
        raise ValueError("cover relation has a cycle")
    return order


def random_mass(rng: random.Random, spec: Spec, focal: int | None = None,
                top_min: float = 0.0) -> dict:
    """Nonnegative mass summing to 1 with nothing at bottom.  ``focal`` picks
    that many random non-bottom elements; None makes every one focal."""
    cands = spec.elements[1:]
    chosen = cands if focal is None else rng.sample(cands, min(focal, len(cands)))
    raw = {x: rng.uniform(0.05, 1.0) for x in chosen}
    scale = (1.0 - top_min) / sum(raw.values())
    vals = {x: 0.0 for x in spec.elements}
    for x, v in raw.items():
        vals[x] += v * scale
    vals[spec.elements[-1]] += top_min
    return vals


def random_maximal_chain(rng: random.Random, spec: Spec) -> list:
    """A random walk up the covers from bottom to top."""
    ups = {x: [] for x in spec.elements}
    for lo, up in spec.covers:
        ups[lo].append(up)
    x, out = spec.elements[0], [spec.elements[0]]
    while ups[x]:
        x = rng.choice(ups[x])
        out.append(x)
    return out


def chain_mass(rng: random.Random, spec: Spec) -> dict:
    """Mass on a random maximal chain (bottom excluded): a consonant body of
    evidence, whose belief function is a necessity function."""
    support = random_maximal_chain(rng, spec)[1:]
    raw = {x: rng.uniform(0.05, 1.0) for x in support}
    total = sum(raw.values())
    return {x: raw.get(x, 0.0) / total for x in spec.elements}


def zeta(spec: Spec, down, m: dict) -> dict:
    """f(x) = sum of m over the down-set of x."""
    return {x: _bitsum(down[i], spec.elements, m) for i, x in enumerate(spec.elements)}


def commonality(spec: Spec, up, m: dict) -> dict:
    """q(x) = sum of m over the up-set of x."""
    return {x: _bitsum(up[i], spec.elements, m) for i, x in enumerate(spec.elements)}


def _bitsum(mask, names, values):
    total = 0.0
    while mask:
        low = mask & -mask
        total += values[names[low.bit_length() - 1]]
        mask ^= low
    return total


def join_irreducibles(spec: Spec) -> list:
    """Elements with exactly one lower cover in the generated covers."""
    lower = {x: 0 for x in spec.elements}
    for _, up in spec.covers:
        lower[up] += 1
    return [x for x in spec.elements if lower[x] == 1]


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def possibility(rng: random.Random, spec: Spec, down, joinirr: list) -> dict:
    """Strictly increasing distribution along a random linear extension of
    the join-irreducibles, with the largest value exactly 1."""
    index = {x: i for i, x in enumerate(spec.elements)}
    left = list(joinirr)
    order = []
    while left:
        ready = [j for j in left if not any(
            o != j and down[index[j]] >> index[o] & 1 for o in left)]
        pick = rng.choice(ready)
        order.append(pick)
        left.remove(pick)
    values = sorted(rng.sample(range(1, 1000), len(order) - 1))
    pi = {j: v / 1000.0 for j, v in zip(order, values)}
    pi[order[-1]] = 1.0
    return pi


def set_negation(spec: Spec) -> dict | None:
    """Closed-form negation of a Boolean lattice (complement) or a chain
    (reversal); None for other inputs."""
    if spec.name.startswith("bool"):
        full = len(spec.elements) - 1
        return {x: spec.elements[full ^ spec.masks[i]] for i, x in enumerate(spec.elements)}
    if spec.name.startswith("chain"):
        return dict(zip(spec.elements, reversed(spec.elements)))
    return None


# -- cli input files --------------------------------------------------------------

def lattice_doc(spec: Spec) -> dict:
    return {"v": 1, "elements": list(spec.elements), "covers": [list(c) for c in spec.covers]}


def values_doc(values: dict) -> dict:
    return {"v": 1, "values": dict(values)}


# Malformed documents with the exit class the command line promises for
# them (2: malformed input).  None depends on the seed.
MALFORMED = {
    "nan.json": '{"v": 1, "values": {"b00": 0.0, "b01": NaN, "b10": 0.5, "b11": 1.0}}\n',
    "pi_null.json": '{"v": 1, "pi": {"b01": null}}\n',
    "dict_cover.json": '{"v": 1, "elements": ["x", "y"], "covers": [[{"k": 1}, "y"]]}\n',
    "broken.json": '{"v": 1, "elements": ["x", "y"], "covers": [["x", "y"]\n',
    "unknown.json": '{"v": 1, "values": {"b00": 0.0, "zz": 1.0}}\n',
}


def cli_inputs(seed: int) -> dict:
    """Every input document of the ``cli`` workload, keyed by file name, plus
    the lattice specs behind them under the key ``"specs"``."""
    rng = random.Random(f"cli:{seed}")
    specs = {s.name: s for s in (boolean(2), boolean(3), boolean(4), boolean(6), chain(10),
                                  diamond(5), partition_lattice(4), reference18())}
    specs["rand"] = random_downset_lattice(rng, "rand", 8, 36, 44)
    files = {f"{name}.json": lattice_doc(s) for name, s in specs.items()}

    while True:
        pnames, pcovers, pdown = random_poset(rng, 7, 0.3)
        if _downsets(pdown, limit=64) is not None:
            break
    files["poset.json"] = {"v": 1, "elements": pnames, "covers": [list(c) for c in pcovers]}
    files["antichain5.json"] = {"v": 1, "elements": [f"a{i}" for i in range(5)], "covers": []}

    data = {"specs": specs, "poset": (pnames, pcovers)}
    for name in ("bool3", "bool4", "ref18"):
        s = specs[name]
        down, up = closure(s)
        m = random_mass(rng, s, top_min=0.2)
        bel = zeta(s, down, m)
        files[f"mass_{name}.json"] = values_doc(m)
        files[f"bel_{name}.json"] = values_doc(bel)
        files[f"q_{name}.json"] = values_doc(commonality(s, up, m))
        data[name] = {"mass": m, "bel": bel}
    s = specs["ref18"]
    files["m1_ref18.json"] = values_doc(random_mass(rng, s, focal=3, top_min=0.1))
    files["m2_ref18.json"] = values_doc(random_mass(rng, s, top_min=0.1))
    foci = rng.sample(s.elements[1:-1], 5)
    files["w_ref18.json"] = values_doc({y: rng.uniform(0.1, 0.9) for y in foci})

    s = specs["bool4"]
    down, _ = closure(s)
    neg = set_negation(s)
    nec = zeta(s, down, chain_mass(rng, s))
    files["neg_bool4.json"] = {"v": 1, "map": neg}
    files["nec_bool4.json"] = values_doc(nec)
    files["pos_bool4.json"] = values_doc({x: 1.0 - nec[neg[x]] for x in s.elements})
    files["pi_bool4.json"] = {"v": 1, "pi": possibility(rng, s, down, join_irreducibles(s))}
    s = specs["ref18"]
    down, _ = closure(s)
    files["pi_ref18.json"] = {"v": 1, "pi": possibility(rng, s, down, join_irreducibles(s))}
    s = specs["bool2"]
    files["neg_bool2.json"] = {"v": 1, "map": set_negation(s)}
    data["files"] = files
    return data


def write_cli_inputs(seed: int, out: str) -> dict:
    data = cli_inputs(seed)
    os.makedirs(out, exist_ok=True)
    for name, doc in data["files"].items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    for name, text in MALFORMED.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write the cli workload's input files")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    data = write_cli_inputs(args.seed, args.out)
    print(f"{len(data['files']) + len(MALFORMED)} files written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
