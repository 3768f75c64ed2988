"""Every command at the cap: run each row of the table below and print how it went.

Usage, from anywhere:  python3 .github/cap.py

The inputs are built once, into a temporary directory.  A command row runs
latbel through .github/peak.py (100 MB, 20 s, exit 3 on a miss), its own
process each, since RUSAGE_CHILDREN is a maximum over every child waited
for; leading NAME=VALUE items of a row are its environment.  An in-process
row times one library call against its bound.  A command's output goes to a
file, read back a line at a time, so that the checker stays small too: its
own peak is the last row.  Exits 1 when a row fails.
"""

import itertools
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import latbel.io as io
from conftest import convex_geometry
from latbel import (MassAllocation, SetFunction, boolean_lattice, build_poset, check_capacity,
                    check_necessity, check_possibility, find_negations, lattice_from_poset,
                    mass_from_comobius, mobius_function, reconstruct_chain, simple_support,
                    verify_vee_negation, zeta_transform)
from latbel.errors import InvalidDistribution
from latbel.lattice import is_distributive, is_lower_semimodular, is_upper_semimodular


def lines(*want):
    """Each line printed, exactly."""
    def check(out, err):
        missing = set(want)
        for line in out:
            missing.discard(line.rstrip("\n"))
        return not missing
    return check


def entries(n, key=None):
    """n lines printed, or n entries in the JSON document {"v": 1, key: ...}
    printed, read one entry at a time so that it is never held whole: the
    head and closing lines exactly, and between them the entries, each from
    a line at indent 4 to its closing bracket at indent 4, parsed alone, with
    a comma after every one but the last.  A member of an object counts its
    own members."""
    def check(out, err):
        if key is None:
            return sum(1 for _ in out) == n
        head = [next(out, None) for _ in range(3)]
        obj = head[2] == f'  "{key}": {{\n'
        if head[:2] != ["{\n", '  "v": 1,\n'] or not obj and head[2] != f'  "{key}": [\n':
            return False
        count, entry, more, line = 0, "", True, None
        for line in out:
            if not line.startswith("    ") or not (entry or more):
                break
            entry += line
            if line[4] in "]}":
                more, text, entry = line.endswith(",\n"), entry.rstrip().removesuffix(","), ""
                try:
                    value = json.loads(f"{{{text}}}").popitem()[1] if obj else json.loads(text)
                except ValueError:
                    return False
                count += len(value) if obj else 1
        return (not (entry or more) and line == ("  }\n" if obj else "  ]\n")
                and next(out, None) == "}\n" and next(out, None) is None and count == n)
    return check


def stderr(line):
    """The line on standard error, exactly."""
    return lambda out, err: line in err.splitlines()


def build(d):
    """Write every input into d: their paths by name, and the in-process rows."""
    path = {}

    def save(name, doc):
        path[name] = str(d / f"{name}.json")
        io.save(path[name], doc)

    for k in (7, 9, 12):
        l = boolean_lattice([str(i) for i in range(k)])
        save(f"b{k}", io.poset_to_dict(l.poset))
    rng = random.Random(1)

    def mass(focal):  # on B12
        w = {x: rng.random() for x in rng.sample(l.elements[1:], focal)}
        return MassAllocation(l, {x: w.get(x, 0) / sum(w.values()) for x in l.elements})

    save("bel12", io.function_to_dict(zeta_transform(mass(20))))
    for name, focal in (("mass12a", 20), ("mass12b", 20), ("dense12a", 4095), ("dense12b", 4095)):
        save(name, io.function_to_dict(mass(focal)))
    save("simple12", io.function_to_dict(simple_support(l, l.elements[1000], 0.3)))
    m = mass(20).vector  # with as much again at top, halved: top mass for decompose
    save("bel12top", io.function_to_dict(zeta_transform(
        MassAllocation(l, {x: (v + (x == l.top)) / 2 for x, v in zip(l.elements, m)}))))
    l = boolean_lattice([str(i) for i in range(9)])
    names = list(l.elements)
    random.Random(0).shuffle(names)
    save("b9_shuffled", {"v": 1, "elements": names, "covers": l.covers})
    for k in (12, 13):
        save(f"anti{k}", {"v": 1, "elements": [f"a{i}" for i in range(k)], "covers": []})
    save("commas", {"v": 1, "elements": ["a,b", "a", "b"], "covers": []})
    save("convex60", io.poset_to_dict(convex_geometry(60).poset))

    names = [f"c{i}" for i in range(4096)]
    covers = list(zip(names, names[1:]))
    shuffled = names.copy()
    random.Random(0).shuffle(shuffled)
    for how, declared in (("up", names), ("down", names[::-1]), ("shuffled", shuffled)):
        save(f"chain_{how}", {"v": 1, "elements": declared, "covers": covers})
    l, rng = lattice_from_poset(build_poset(names, covers)), random.Random(1)
    save("f4096", io.function_to_dict(SetFunction(l, {x: rng.random() for x in names})))
    weights = [{x: rng.random() for x in names[1:]} for _ in range(2)]
    dense = [MassAllocation(l, {x: w.get(x, 0) / sum(w.values()) for x in names}) for w in weights]
    save("dense_a", io.function_to_dict(dense[0]))
    save("dense_b", io.function_to_dict(dense[1]))
    save("bel4096", io.function_to_dict(zeta_transform(dense[0])))
    save("simple4096", io.function_to_dict(simple_support(l, "c2048", 0.3)))
    v = [i / 4095 for i in range(4096)]  # rising, but for f(c4093) > f(c4094)
    v[4093], v[4094] = v[4094], v[4093]
    drop = SetFunction(l, dict(zip(names, v)))
    save("drop4096", io.function_to_dict(drop))
    swapped = dict(zip(names, names[::-1]))  # the reversal, c4093's and c4094's images swapped
    swapped["c4093"], swapped["c4094"] = swapped["c4094"], swapped["c4093"]
    (n,) = find_negations(l, 1)

    def refusal():
        try:
            reconstruct_chain(l, n, dict(zip(names[1:], v[1:])))
        except InvalidDistribution as e:
            return str(e).startswith("pi is not isotone: c4093 <= c4094 but")

    two_tops = build_poset(names[:4094] + ["p", "q"], covers[:4093] + [("c4093", x) for x in "pq"])
    save("two_tops", io.poset_to_dict(two_tops))
    m3chain = build_poset(names[:4091] + ["a", "b", "c", "1"],
                          covers[:4090] + [("c4090", x) for x in "abc"] + [(x, "1") for x in "abc"])
    save("m3chain", io.poset_to_dict(m3chain))
    atoms = [f"a{i}" for i in range(4000)]
    m4000 = build_poset(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])
    save("m4000", io.poset_to_dict(m4000))
    late = ("c4093", "c4094")
    return path, [  # name, bound in s, the call: true when it gives what it should
        ("check_capacity", 0.5, lambda: check_capacity(drop).witness == late),
        ("check_necessity", 0.5, lambda: check_necessity(drop).witness == late),
        ("check_possibility", 0.5, lambda: check_possibility(drop).witness == late),
        ("reconstruct_chain refusal", 0.25, refusal),
        ("verify_vee_negation", 0.5, lambda: verify_vee_negation(l, swapped).witness == late),
        ("mobius_function on b12", 0.1, lambda p=boolean_lattice([str(i) for i in range(12)]):
         mobius_function(p).mu(p.bottom, p.top) == 1),
        ("zeta_transform and mass_from_comobius on b12", 0.15,
         lambda p=boolean_lattice([str(i) for i in range(12)]): transforms_hold(p)),
        ("is_distributive on m3chain", 0.5,
         lambda p=lattice_from_poset(m3chain): not is_distributive(p)),
        *((f"{name} on m4000", 0.5, lambda p=lattice_from_poset(m4000), run=run: bool(run(p)))
          for name, run in (("find_negations(l, 1)", lambda p: find_negations(p, 1)),
                            ("is_upper_semimodular", is_upper_semimodular),
                            ("is_lower_semimodular", is_lower_semimodular))),
    ]


def transforms_hold(l):
    """Cold, on a fresh lattice: zeta of the constant 1 counts each down-set,
    and the constant commonality 1 is all mass at top."""
    ones = SetFunction(l, dict.fromkeys(l.elements, 1.0))
    return (zeta_transform(ones).vector == tuple(float(d.bit_count()) for d in l._down)
            and mass_from_comobius(ones).vector == (0.0,) * (len(l) - 1) + (1.0,))


def commands(p, d):
    """(argv, expected exit code, output check) of each command row."""
    focal, up, shuffled = lines("focal element\tmass"), p["chain_up"], p["chain_shuffled"]
    necessity = "0.9997557997557998 != min(f(c4093), f(c4094)) = 0.9995115995115995"
    return [
        (["check", p["convex60"]], 0, lines("is_lower_locally_distributive: true")),
        (["check", p["b12"]], 0, lines("is_distributive: true", "is_complemented: true")),
        (["bel", "check", "--lattice", p["b12"], p["bel12"]], 0, lines("is_belief: holds")),
        (["bel", "decompose", "--lattice", p["b12"], p["bel12top"]], 0, lines("focus\tweight")),
        (["bel", "combine", "--lattice", p["b12"], p["mass12a"], p["mass12b"]], 0, focal),
        (["bel", "combine", "--lattice", p["b12"], p["dense12a"], p["dense12b"]], 0, focal),
        (["bel", "combine", "--lattice", p["b12"], p["dense12a"], p["simple12"]], 0, focal),
        (["chains", p["b12"]], 2, stderr("SizeLimitExceeded: 479001600 maximal chains exceed "
                                         "the cap of 1000000; raise it with --limit")),
        (["negations", p["b7"], "--all", "--json"], 0, entries(5040, "negations")),
        (["chains", p["b9"], "--json"], 0, entries(362880, "chains")),
        (["mobius", p["b12"], "--json"], 0, entries(531441, "mu")),
        (["mobius", p["b12"]], 0, entries(531441)),
        (["birkhoff", p["anti12"], "--out", f"{d}/b12d.json"], 0,
         lines(f"4096 downsets written to {d}/b12d.json")),
        (["birkhoff", p["anti13"]], 2, stderr("SizeLimitExceeded: more than 4096 downsets exceed "
                                              "the configured cap of 4096 elements")),
        (["LATBEL_MAX_ELEMENTS=8192", "birkhoff", p["anti13"], "--out", f"{d}/b13d.json"], 0,
         lines(f"8192 downsets written to {d}/b13d.json")),
        (["birkhoff", p["commas"]], 2, stderr("DuplicateElement: duplicate element name: '{a,b}'")),
        (["check", p["b9_shuffled"]], 0, lines("is_autodual: true")),
        (["negations", p["b9_shuffled"]], 0, entries(1)),
        *((["transform", t, "--lattice", p[f"chain_{how}"], p["f4096"]], 0, entries(4096))
          for how, ts in (("up", "zeta mobius"), ("down", "comobius inverse-comobius"),
                          ("shuffled", "zeta mobius comobius inverse-comobius"))
          for t in ts.split()),
        (["bel", "check", "--lattice", shuffled, p["bel4096"]], 0, lines("is_belief: holds")),
        (["bel", "combine", "--lattice", shuffled, p["dense_a"], p["dense_b"]], 0, focal),
        (["bel", "decompose", "--lattice", shuffled, p["bel4096"]], 0, entries(4095)),
        (["bel", "combine", "--lattice", up, p["dense_a"], p["dense_b"]], 0, focal),
        (["bel", "combine", "--lattice", up, p["dense_a"], p["simple4096"]], 0, focal),
        (["bel", "necessity", "--lattice", up, p["drop4096"]], 1,
         lines(f"necessity: fails  witness=['c4093', 'c4094']  {necessity}")),
        (["bel", "possibility", "--lattice", up, p["drop4096"]], 1,
         lines("possibility: fails  witness=['c4093', 'c4094']  0.9995115995115995 != "
               "max(f(c4093), f(c4094)) = 0.9997557997557998")),
        (["bel", "check", "--lattice", up, p["drop4096"]], 1,
         lines(f"is_necessity: fails  witness=['c4093', 'c4094']  {necessity}")),
        (["check", p["two_tops"]], 1, lines("  witness: ('p', 'q') has no-upper-bound")),
        (["check", p["m3chain"]], 0, lines("is_distributive: false  witness=['a', 'b', 'c']")),
        (["check", p["m4000"]], 0, lines("is_modular: true", "is_autodual: true")),
    ]


def main():
    table, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        paths, calls = build(pathlib.Path(tmp))
        for name, bound, call in calls:
            start = time.perf_counter()
            ok = call()
            took = time.perf_counter() - start
            table.append((name, "-", f"{took:.3f}", "-", f"{bound} s"))
            if not ok or took >= bound:
                failed.append(name)
        for argv, code, check in commands(paths, tmp):
            env = dict(a.split("=", 1) for a in itertools.takewhile(lambda a: "=" in a, argv))
            with tempfile.TemporaryFile("w+", dir=tmp) as out:  # read back a line at a time
                p = subprocess.run([sys.executable, ".github/peak.py", *argv[len(env):]], cwd=ROOT,
                                   stdout=out, stderr=subprocess.PIPE, text=True,
                                   env={**os.environ, **env})
                out.seek(0)
                ok = p.returncode == code and check(out, p.stderr)
            name = " ".join(pathlib.Path(a).stem if a.startswith(tmp) else a for a in argv)
            got = re.search(r"exit -?\d+, ([\d.]+) s, peak RSS ([\d.]+) MB$", p.stderr)
            wall, peak = got.groups() if got else ("-", "-")
            table.append((name, p.returncode, wall, peak, "100 MB, 20 s"))
            if not ok:
                failed.append(name)
                print(p.stderr, file=sys.stderr, end="")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    table.append(("this checker", "-", "-", f"{peak:.1f}", "100 MB"))
    if peak >= 100:
        failed.append("this checker")
    print("| row | exit | wall s | peak MB | budget |\n|---|---|---|---|---|")
    for row in table:
        print("| " + " | ".join(map(str, row)) + " |")
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
