"""``cli``: every ``latbel`` command run as its own process, one after
another, on input files written in set-up.

Each call pays again for interpreter start-up, import, JSON loading and
lattice construction, so work moved from the query path into construction
(eager caches, say) shows here as a cost.  The traced run calls
``latbel.cli.main`` in-process over the same command list instead, so the
per-layer numbers separate start-up from command work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import gen
import ref
from harness import Calibrator, format_exception
from latbel import cli

PROBE_REPEATS = 5
# Subprocess timings track the start-up time of a bare interpreter far
# better than the pure-Python loop (in a 150 s test, over 30 s windows, the
# spread of a command pair's time was 8.0% raw, 4.5% over the loop and 1.3%
# over `python -c pass`), so the subprocess rounds are calibrated by it.
INTERPRETER_REF_MS = 80.0


@dataclass
class Cmd:
    label: str
    argv: list
    code: int            # the exit code the command line promises
    check: object = None  # stdout text -> bool, for a zero exit


class State:
    def __init__(self, workdir, data, src):
        self.dir = workdir
        self.data = data
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.models = {name: ref.Model(s) for name, s in data["specs"].items()}
        self.commands = commands(self)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


class Cli:
    name = "cli"

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.src = src

    def setup(self, seed: int, tracer=None) -> State:
        data = gen.write_cli_inputs(seed, self.workdir)
        st = State(self.workdir, data, self.src)
        # Warm-up: the first start after a checkout compiles the bytecode.
        _subprocess(st, ["--help"])
        return st

    @staticmethod
    def calibrator() -> Calibrator:
        """Calibration for the subprocess rounds: a bare interpreter start,
        reported at INTERPRETER_REF_MS, probed about once a second."""
        return Calibrator(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True),
                          INTERPRETER_REF_MS, every_s=1.0)

    def tasks(self, st: State, round_no: int, traced: bool = False) -> list:
        run = _inprocess if traced else _subprocess
        return [lambda m, c=c: _task(m, st, c, run) for c in st.commands]

    def probes(self, st: State) -> dict:
        """Interpreter start-up, and the extra time of ``import latbel``."""
        def median_ms(code):
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=st.env, check=True)
                times.append(time.perf_counter() - t0)
            return statistics.median(times) * 1e3
        interp = median_ms("pass")
        return {"cli.interpreter_ms": interp, "cli.import_ms": median_ms("import latbel") - interp}

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _subprocess(st: State, argv):
    p = subprocess.run([sys.executable, "-m", "latbel", *argv], cwd=st.dir, env=st.env,
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout, p.stderr


def _inprocess(st: State, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # what the interpreter would print, then exit 1
            err.write(format_exception(exc))
            code = 1
    return code, out.getvalue(), err.getvalue()


def _task(m, st: State, c: Cmd, run):
    code, out, err = m.call(c.label, c.label, run, st, c.argv)
    if code != c.code or "Traceback (most recent call last)" in err:
        m.fail(f"{c.label}: exit {code}, expected {c.code}"
               + (" with a traceback" if "Traceback" in err else ""))
        return
    if c.check is not None:
        try:
            ok = bool(c.check(out))
        except (ValueError, KeyError, TypeError, IndexError, ArithmeticError):
            ok = False
        m.check(lambda: ok, f"{c.label}: output fails its property")


# -- the command list -------------------------------------------------------------

def commands(st: State) -> list[Cmd]:
    p, md, data = st.path, st.models, st.data
    specs = data["specs"]
    out = []

    def add(label, argv, code=0, check=None):
        out.append(Cmd(label, [str(a) for a in argv], code, check))

    def flags_hold(name):
        def check(text):
            doc = json.loads(text)
            want = dict(specs[name].expect["flags"])
            return all(doc[k] == v for k, v in want.items())
        return check

    for name in ("bool4", "bool6", "m5", "pi4", "rand"):
        add(f"check {name}", ["check", p(f"{name}.json"), "--json"], 0, flags_hold(name))
    add("check ref18 text", ["check", p("ref18.json")], 0,
        lambda t: "is_distributive: true" in t and "is_autodual: true" in t)

    add("birkhoff antichain5 --out", ["birkhoff", p("antichain5.json"), "--out", p("out_b5.json")],
        0, lambda t: len(_load(p("out_b5.json"))["elements"]) == 32)
    pnames, pcovers = data["poset"]
    downsets = len(gen.downset_spec("poset", pnames, pcovers))
    add("birkhoff poset", ["birkhoff", p("poset.json")], 0,
        lambda t: len(json.loads(t)["elements"]) == downsets)

    for name in ("bool4", "m5", "pi4", "chain10"):
        s = specs[name]
        add(f"mobius {name}", ["mobius", p(f"{name}.json"), "--json"], 0,
            lambda t, s=s: json.loads(t)["mu"][s.elements[0]][s.elements[-1]] == s.expect["mu"])

    b4, r18 = data["bool4"], data["ref18"]
    add("transform zeta", ["transform", "zeta", "--lattice", p("bool4.json"), p("mass_bool4.json"),
                           "--json"], 0, lambda t: _close(t, b4["bel"]))
    add("transform mobius", ["transform", "mobius", "--lattice", p("bool4.json"),
                             p("bel_bool4.json"), "--json"], 0, lambda t: _close(t, b4["mass"]))
    add("transform comobius", ["transform", "comobius", "--lattice", p("ref18.json"),
                               p("mass_ref18.json"), "--json", "--out", p("out_q.json")], 0,
        lambda t: _close(t, md["ref18"].commonality(r18["mass"])))
    add("transform inverse-comobius", ["transform", "inverse-comobius", "--lattice",
                                       p("ref18.json"), p("q_ref18.json"), "--json"], 0,
        lambda t: _close(t, r18["mass"]))

    def negations_ok(name, count=None):
        def check(text):
            found = json.loads(text)["negations"]
            rng = random.Random(0)
            return ((count is None or len(found) == count)
                    and all(md[name].reverses_order(n, rng) for n in found))
        return check
    add("negations bool4", ["negations", p("bool4.json"), "--json"], 0, negations_ok("bool4", 1))
    add("negations m5 --all", ["negations", p("m5.json"), "--all", "--json"], 0,
        negations_ok("m5", 120))
    add("negations pi4", ["negations", p("pi4.json")], 1)

    for name in ("bool4", "pi4"):
        add(f"chains {name}", ["chains", p(f"{name}.json"), "--json"], 0,
            lambda t, name=name: _chains_ok(md[name], json.loads(t)["chains"],
                                            specs[name].expect["chains"]))
    add("dot ref18", ["dot", p("ref18.json")], 0,
        lambda t: (t.startswith("digraph lattice {")
                   and t.count(" -> ") == len(specs["ref18"].covers)))

    lat = ["--lattice"]
    add("bel check", ["bel", "check", *lat, p("bool4.json"), p("bel_bool4.json"), "--json"], 0,
        lambda t: json.loads(t)["is_belief"]["ok"] and json.loads(t)["is_capacity"]["ok"])
    add("bel check --max-k", ["bel", "check", *lat, p("bool3.json"), p("bel_bool3.json"),
                              "--max-k", "--json"], 0,
        lambda t: json.loads(t)["max_k_monotone"] == "total")
    add("bel kmono 2", ["bel", "kmono", "2", *lat, p("ref18.json"), p("bel_ref18.json")])
    add("bel kmono 3", ["bel", "kmono", "3", *lat, p("bool4.json"), p("bel_bool4.json")])
    add("bel kmono total", ["bel", "kmono", "total", *lat, p("bool3.json"), p("bel_bool3.json")])
    add("bel valuation 2", ["bel", "valuation", "2", *lat, p("bool3.json"), p("bel_bool3.json")],
        0 if md["bool3"].is_2_valuation(data["bool3"]["bel"]) else 1)

    nec = _load(p("nec_bool4.json"))["values"]
    pos = _load(p("pos_bool4.json"))["values"]
    add("bel conjugate", ["bel", "conjugate", *lat, p("bool4.json"), "--negation",
                          p("neg_bool4.json"), p("nec_bool4.json"), "--json"], 0,
        lambda t: _close(t, pos))
    q1 = md["ref18"].commonality(_load(p("m1_ref18.json"))["values"])
    q2 = md["ref18"].commonality(_load(p("m2_ref18.json"))["values"])
    for policy in ("raw", "zero-bottom", "normalize"):
        add(f"bel combine {policy}", ["bel", "combine", *lat, p("ref18.json"), "--policy", policy,
                                      p("m1_ref18.json"), p("m2_ref18.json"), "--json"], 0,
            lambda t, policy=policy: ref.combination_holds(md["ref18"], json.loads(t)["values"],
                                                           q1, q2, policy))
    q18 = md["ref18"].commonality(r18["mass"])
    add("bel decompose", ["bel", "decompose", *lat, p("ref18.json"), p("bel_ref18.json"),
                          "--json", "--out", p("out_w.json")], 0,
        lambda t: ref.weights_reproduce(md["ref18"], json.loads(t)["values"], q18))
    w = _load(p("w_ref18.json"))["values"]
    add("bel recombine", ["bel", "recombine", *lat, p("ref18.json"), p("w_ref18.json"), "--json"],
        0, lambda t: ref.weights_reproduce(md["ref18"], w,
                                        md["ref18"].commonality(json.loads(t)["values"])))
    add("bel necessity chain", ["bel", "necessity", *lat, p("bool4.json"), p("nec_bool4.json")],
        0 if md["bool4"].is_min_meet(nec) else 1)
    add("bel necessity dense", ["bel", "necessity", *lat, p("bool4.json"), p("bel_bool4.json")],
        0 if md["bool4"].is_min_meet(b4["bel"]) else 1)
    add("bel possibility", ["bel", "possibility", *lat, p("bool4.json"), p("pos_bool4.json")],
        0 if md["bool4"].is_max_join(pos) else 1)

    neg4 = _load(p("neg_bool4.json"))["map"]
    pi4 = _load(p("pi_bool4.json"))["pi"]
    add("bel reconstruct --negation", ["bel", "reconstruct", *lat, p("bool4.json"), "--negation",
                                       p("neg_bool4.json"), "--pi", p("pi_bool4.json"), "--json"],
        0, lambda t: _reconstructed(md["bool4"], json.loads(t), neg4, pi4))
    pi18 = _load(p("pi_ref18.json"))["pi"]
    add("bel reconstruct search", ["bel", "reconstruct", *lat, p("ref18.json"), "--pi",
                                   p("pi_ref18.json"), "--json"], 0,
        lambda t: _reconstructed(md["ref18"], json.loads(t), None, pi18))

    # Malformed input: the command line promises exit 2 and no traceback.
    add("malformed NaN value", ["bel", "check", *lat, p("bool2.json"), p("nan.json")], 2)
    add("malformed null pi", ["bel", "reconstruct", *lat, p("bool2.json"), "--negation",
                              p("neg_bool2.json"), "--pi", p("pi_null.json")], 2)
    add("malformed dict cover", ["check", p("dict_cover.json")], 2)
    add("malformed JSON", ["check", p("broken.json")], 2)
    add("malformed unknown element", ["bel", "check", *lat, p("bool2.json"), p("unknown.json")], 2)
    return out


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(text, want: dict) -> bool:
    return ref.close(json.loads(text)["values"], want)


def _chains_ok(md: ref.Model, chains, count) -> bool:
    return (len(chains) == count and len({tuple(c) for c in chains}) == count
            and all(md.is_maximal_chain(c) for c in chains))


def _reconstructed(md: ref.Model, doc: dict, neg, pi: dict) -> bool:
    """``neg`` None: the negation the command searched for, as its step
    table reports it on the join-irreducibles; it must reverse the order of
    the benchmark's own closure there."""
    if neg is None:
        neg = {s["x"]: s["n(x)"] for s in doc["steps"]}
        if not all(md.leq(x, y) == md.leq(neg[y], neg[x]) for x in neg for y in neg):
            return False
    return ref.chain_reproduces(md, doc["chain"], doc["mass"], neg, pi)
