"""Span recording around latbel's public functions, for the traced run.

``Tracer.install`` swaps each wrapped function (or constructor) for a
timing wrapper in every latbel module that holds a reference to it, so
calls the library makes internally are seen too and nest under the call
that made them.  Spans stay in memory; ``summary`` folds them into per-layer
call counts, inclusive time and self time, and ``write`` dumps both as
JSON.  Nothing is patched unless a traced run asks for it, so the untraced
run measures the library as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time


def _kmono_work(args, kwargs, result):
    f, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    families = math.comb(len(f.lattice), k)
    return {"capacity.kmono.families": families,
            "capacity.kmono.meets": families * (2 ** k - 1)}


def _combine_work(args, kwargs, result):
    m1, m2 = args[0], args[1]
    f1 = sum(1 for v in m1.values.values() if v != 0.0)
    f2 = sum(1 for v in m2.values.values() if v != 0.0)
    return {"evidence.combine.pairs": f1 * f2}


def _load_work(args, kwargs, result):
    try:
        return {"io.load.bytes": os.path.getsize(args[0])}
    except (OSError, TypeError, IndexError):
        return {}


# (layer, module, attribute, member of a class or None, work counter).  A
# work counter maps (args, kwargs, result) to counts computed from the
# inputs and outputs of one call.
TARGETS = [
    ("lattice.poset", "lattice", "Poset", "__init__", None),
    ("lattice.tables", "lattice", "Lattice", "__init__",
     lambda a, k, r: {"lattice.elements_built": len(a[0].poset)}),
    ("lattice.downsets", "lattice", "downset_lattice", None,
     lambda a, k, r: {"lattice.downsets.elements": len(r.lattice)}),
    ("lattice.profile", "lattice", "profile", None, None),
    ("lattice.chains", "lattice", "maximal_chains", None,
     lambda a, k, r: {"lattice.chains.emitted": len(r)}),
    ("transforms.mobius_function", "transforms", "MobiusMatrix", "__init__", None),
    ("transforms.mobius", "transforms", "mobius_transform", None, None),
    ("transforms.zeta", "transforms", "zeta_transform", None, None),
    ("transforms.comobius", "transforms", "comobius_transform", None, None),
    ("transforms.inverse_comobius", "transforms", "mass_from_comobius", None, None),
    ("capacity.check_capacity", "capacity", "check_capacity", None, None),
    ("capacity.check_belief", "capacity", "check_belief", None, None),
    ("capacity.conjugate", "capacity", "conjugate", None, None),
    ("capacity.kmono", "capacity", "check_k_monotone", None, _kmono_work),
    ("capacity.total_monotone", "capacity", "check_total_monotone", None, None),
    ("duality.find_negations", "duality", "find_negations", None,
     lambda a, k, r: {"duality.negations_found": len(r)}),
    ("duality.verify", "duality", "verify_vee_negation", None, None),
    ("evidence.combine", "evidence", "combine", None, _combine_work),
    ("evidence.decompose", "evidence", "decompose", None, None),
    ("evidence.recombine", "evidence", "recombine", None, None),
    ("possibilistic.check", "possibilistic", "check_necessity", None, None),
    ("possibilistic.check", "possibilistic", "check_possibility", None, None),
    ("possibilistic.reconstruct", "possibilistic", "reconstruct_chain", None, None),
    ("possibilistic.eval", "possibilistic", "eval_possibility", None, None),
    ("io.load", "io", "load_poset", None, _load_work),
    ("io.load", "io", "load_values", None, _load_work),
    ("io.load", "io", "load_negation", None, _load_work),
    ("io.load", "io", "load_distribution", None, _load_work),
    ("io.save", "io", "save", None, None),
    ("cli.main", "cli", "main", None, None),
]


class Tracer:
    """Records one span per wrapped call: (id, parent, layer, function,
    start, end, input name, phase).  ``input`` names the benchmark input the
    enclosing operation works on; ``phase`` is "setup" or the round number.
    Counters are kept per phase as well."""

    FIELDS = ["id", "parent", "layer", "function", "start_s", "end_s", "input", "phase"]

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[object, dict[str, int]] = {}
        self.input = ""
        self.phase: object = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, layer: str, fn_name: str, call, work=None):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, layer, fn_name, t0, t1, self.input, self.phase)
        if work is not None:
            bucket = self.counters.setdefault(self.phase, {})
            for name, v in work(result).items():
                bucket[name] = bucket.get(name, 0) + v
        return result

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = None if counter is None else (lambda r: counter(args, kwargs, r))
            return tracer.span(layer, fn.__name__, lambda: fn(*args, **kwargs), work)
        return wrapper

    def install(self):
        """Wrap every target in all loaded latbel modules."""
        for _, modname, _, _, _ in TARGETS:
            importlib.import_module(f"latbel.{modname}")
        mods = {name: m for name, m in sys.modules.items()
                if name == "latbel" or name.startswith("latbel.")}
        for layer, modname, attr, member, counter in TARGETS:
            owner = getattr(mods[f"latbel.{modname}"], attr)
            if member is not None:
                original = owner.__dict__[member]
                self._saved.append((owner, member, original))
                setattr(owner, member, self._wrap(layer, original, counter))
                continue
            wrapper = self._wrap(layer, owner, counter)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # -- summaries -------------------------------------------------------------

    def summary(self, phases=None) -> dict:
        """Per layer: calls, inclusive ms and self ms (inclusive minus the time
        covered by direct child spans), over the spans of ``phases`` (all
        phases when None)."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, _, layer, _, t0, t1, _, phase in self.spans:
            if phases is not None and phase not in phases:
                continue
            row = out.setdefault(layer, {"calls": 0, "inclusive_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["inclusive_ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - child_time[sid]) * 1e3
        return out

    def median_ms(self, layer: str, input_name: str) -> float:
        """Median inclusive duration of one layer's spans on one input; 0 when
        this workload never ran that layer on that input."""
        durs = [(t1 - t0) * 1e3 for _, _, lay, _, t0, t1, inp, _ in self.spans
                if lay == layer and inp == input_name]
        return statistics.median(durs) if durs else 0.0

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "fields": self.FIELDS,
            "spans": self.spans,
            "summary": self.summary(),
            "counters": {str(k): v for k, v in self.counters.items()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
