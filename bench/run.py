"""latbel benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload structure --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports latbel from its ``src``
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones: set-up time (median of
several set-ups), throughput and latency quantiles of the closed loop, and
peak resident memory.  With ``--trace 1`` they are the per-layer ones, from
spans recorded around latbel's public functions; the spans and a per-layer
summary are written under ``.bench_work/trace``.  Failures and wrong
results are listed on standard error.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from harness import MIN_OPS, Meter, latency_metrics, run_for, run_round
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
WORKLOADS = ("structure", "evidence", "cli")

# Per-layer metrics: busy time is self time (a span minus its traced
# children), per set-up plus one round; calls and computed counts likewise.
BUSY_LAYERS = [
    "lattice.poset", "lattice.tables", "lattice.downsets", "lattice.profile", "lattice.chains",
    "transforms.mobius_function", "transforms.mobius", "transforms.zeta", "transforms.comobius",
    "transforms.inverse_comobius", "capacity.check_capacity", "capacity.check_belief",
    "capacity.conjugate", "capacity.kmono", "capacity.total_monotone",
    "duality.find_negations", "duality.verify", "evidence.combine", "evidence.decompose",
    "evidence.recombine", "possibilistic.check", "possibilistic.reconstruct",
    "possibilistic.eval", "io.load", "io.save", "cli.main",
]
CALL_LAYERS = {
    "lattice.poset": "lattice.poset.calls", "lattice.tables": "lattice.tables.calls",
    "lattice.profile": "lattice.profile.calls",
    "transforms.mobius_function": "transforms.mobius_function.calls",
    "transforms.mobius": "transforms.mobius.calls", "transforms.zeta": "transforms.zeta.calls",
    "transforms.comobius": "transforms.comobius.calls",
    "transforms.inverse_comobius": "transforms.inverse_comobius.calls",
    "capacity.kmono": "capacity.kmono.calls",
    "duality.find_negations": "duality.find_negations.calls",
    "evidence.combine": "evidence.combine.calls", "evidence.decompose": "evidence.decompose.calls",
    "evidence.recombine": "evidence.recombine.calls",
    "possibilistic.reconstruct": "possibilistic.reconstruct.calls", "cli.main": "cli.calls",
}
COUNTERS = [
    "lattice.downsets.elements", "lattice.elements_built", "lattice.chains.emitted",
    "capacity.kmono.families", "capacity.kmono.meets", "duality.negations_found",
    "evidence.combine.pairs", "io.load.bytes",
]
LADDER = [  # (metric, layer, input): median inclusive time of one call
    ("lattice.tables.bool8_ms", "lattice.tables", "bool8"),
    ("lattice.tables.bool9_ms", "lattice.tables", "bool9"),
    ("lattice.tables.chain128_ms", "lattice.tables", "chain128"),
    ("lattice.tables.chain256_ms", "lattice.tables", "chain256"),
    ("lattice.downsets.bool8_ms", "lattice.downsets", "bool8"),
    ("lattice.downsets.bool9_ms", "lattice.downsets", "bool9"),
    ("lattice.profile.bool6_ms", "lattice.profile", "bool6"),
    ("lattice.profile.bool7_ms", "lattice.profile", "bool7"),
    ("lattice.profile.pi5_ms", "lattice.profile", "pi5"),
    ("transforms.mobius_function.bool9_ms", "transforms.mobius_function", "bool9"),
]
PROBES = ["cli.interpreter_ms", "cli.import_ms"]


def load_latbel() -> None:
    """Import latbel from this checkout's sources, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "latbel", "__init__.py")):
        sys.exit(f"run.py: no latbel sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import latbel
    if os.path.dirname(os.path.abspath(latbel.__file__)) != os.path.join(SRC, "latbel"):
        sys.exit(f"run.py: imported latbel from {latbel.__file__}, not from {SRC}")


def make_workload(name: str):
    if name == "structure":
        from w_structure import Structure
        return Structure()
    if name == "evidence":
        from w_evidence import Evidence
        return Evidence()
    from w_cli import Cli
    return Cli(os.path.join(WORK, "cli"), SRC)


def peak_rss_mb(wl) -> float:
    if hasattr(wl, "peak_rss_mb"):
        return wl.peak_rss_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl, seed: int, seconds: float):
    meter = Meter(cal=wl.calibrator() if hasattr(wl, "calibrator") else None)
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before building the next,
        gc.collect()  # cycles too, so the peak holds one set-up and the loop
        state, dt = meter.cal.timed(wl.setup, seed)
        setups.append(dt)
    run_for(lambda r: wl.tasks(state, r), meter, seed, seconds)
    metrics = {"setup_s": (statistics.median(setups), "s"), **latency_metrics(meter),
               "peak_rss_mb": (peak_rss_mb(wl), "MB")}
    raw = latency_metrics(meter, raw=True)
    print("unnormalized: " + "  ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items())
          + f"  calibration_probe_ms={1e3 * statistics.median(meter.cal.samples):.4g}",
          file=sys.stderr)
    return meter, metrics


def traced(wl, seed: int, seconds: float):
    """Traced set-up, then rounds alternating untraced and traced on the
    same order until ``seconds`` have passed; per-layer metrics come from
    the traced set-up and the mean traced round."""
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(seed, tracer)
    finally:
        tracer.uninstall()
    meter = Meter()
    meter.cal.slice()
    walls = {False: [], True: []}
    start = time.perf_counter()
    pair = 0
    while True:
        for on in (False, True):
            if on:
                tracer.phase = pair
                tracer.install()
                meter.tracer = tracer
            t0 = time.perf_counter()
            try:
                run_round(wl.tasks(state, pair, traced=True), meter, seed, pair)
            finally:
                walls[on].append(time.perf_counter() - t0)
                tracer.uninstall()
                meter.tracer = None
        pair += 1
        if time.perf_counter() - start >= seconds and meter.attempted >= MIN_OPS:
            break

    meter.cal.slice()
    scale = meter.cal.run_factor()  # raw to reference time
    rounds = set(range(pair))
    in_setup, in_rounds = tracer.summary({"setup"}), tracer.summary(rounds)

    def per_round(layer, key):
        return (in_setup.get(layer, {}).get(key, 0)
                + in_rounds.get(layer, {}).get(key, 0) / pair)

    metrics = {}
    for layer in BUSY_LAYERS:
        metrics[f"{layer}.busy_ms"] = (per_round(layer, "self_ms") * scale, "ms")
    for layer, name in CALL_LAYERS.items():
        metrics[name] = (per_round(layer, "calls"), "count")
    for name in COUNTERS:
        total = tracer.counters.get("setup", {}).get(name, 0) + sum(
            tracer.counters.get(r, {}).get(name, 0) for r in rounds) / pair
        metrics[name] = (total, "count")
    for name, layer, inp in LADDER:
        metrics[name] = (tracer.median_ms(layer, inp) * scale, "ms")
    probes = wl.probes(state) if hasattr(wl, "probes") else {}
    for name in PROBES:
        metrics[name] = (probes.get(name, 0.0) * scale, "ms")
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_ms"] = (overhead * 1e3 * scale, "ms")

    path = os.path.join(WORK, "trace", f"{wl.name}-seed{seed}.json")
    tracer.write(path, {"workload": wl.name, "seed": seed, "rounds": pair,
                        "round_wall_s": {"untraced": walls[False], "traced": walls[True]},
                        "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"trace written to {path}", file=sys.stderr)
    return meter, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_latbel()
    wl = make_workload(args.workload)
    run = traced if args.trace else end_to_end
    meter, metrics = run(wl, args.seed, args.seconds)
    for line in meter.report():
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": meter.correct,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
