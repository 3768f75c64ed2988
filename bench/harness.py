"""Closed-loop operation runner shared by the workloads.

A workload hands the runner a list of tasks per round.  A task is a
function of one ``Meter``; it makes one or more operations through
``Meter.call`` (which times exactly the library call) and checks each
result with ``Meter.check`` outside the timed region.  Every round runs the
same tasks, in an order shuffled from the seed and the round number, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import random
import statistics
import time
import traceback

MIN_OPS = 100  # at least ten samples beyond the 90th percentile

# The machine's speed drifts by 10-30% over minutes (shared hosts), and the
# drift slows every operation of one kind alike.  Every time the benchmark
# reports is therefore normalized by a probe timed between operations: a
# reported millisecond is a millisecond on a machine where the probe takes
# its reference time.  The default probe is a fixed pure-Python loop that
# takes REF_LOOP_MS; see README.md.
REF_LOOP_MS = 10.0
_LOOP_ITERATIONS = 50_000


def calibration_loop() -> None:
    table = {}
    acc = 0
    for i in range(_LOOP_ITERATIONS):
        table[i & 1023] = acc
        acc += (i * i) % 7


class Calibrator:
    """Times ``probe`` between operations once ``every_s`` seconds have
    passed since the last probe; ``factor`` converts raw time measured
    between two probes to reference time."""

    def __init__(self, probe=calibration_loop, ref_ms: float = REF_LOOP_MS,
                 every_s: float = 0.25):
        self.probe, self.ref_s, self.every_s = probe, ref_ms * 1e-3, every_s
        self.samples: list[float] = []
        self._last = 0.0

    def slice(self) -> None:
        t0 = time.perf_counter()
        self.probe()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.slice()

    def factor(self, segment: int) -> float:
        """For work done after probe ``segment - 1`` and before probe
        ``segment``: the reference time over the mean of the two."""
        before = self.samples[max(segment - 1, 0)]
        after = self.samples[min(segment, len(self.samples) - 1)]
        return self.ref_s / ((before + after) / 2)

    def run_factor(self) -> float:
        return self.ref_s / statistics.median(self.samples)

    def timed(self, fn, *args):
        """Run ``fn`` between two slices; return (result, reference seconds)."""
        self.slice()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.slice()
        return out, dt * self.factor(len(self.samples) - 1)


class OpFailed(Exception):
    """Raised out of a task when one of its operations failed."""


class Meter:
    """Counts, times and checks operations.  A warm-up meter neither
    calibrates nor evaluates checks, so set-up pays for no reference work."""

    def __init__(self, tracer=None, warmup: bool = False, cal: Calibrator | None = None):
        self.tracer = tracer
        self.warmup = warmup
        self.cal = cal or Calibrator()
        self.latencies: list[float] = []  # raw seconds
        self.segments: list[int] = []     # calibration segment of each latency
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.wrong: dict[str, int] = {}

    def call(self, op: str, input_name: str, fn, *args, **kwargs):
        """Time one operation; an exception counts it as failed and aborts
        the task."""
        self.attempted += 1
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn(*args, **kwargs)
            else:
                tracer.input = input_name
                out = tracer.span("op", op, lambda: fn(*args, **kwargs))
        except Exception as exc:
            self._record(time.perf_counter() - t0)
            self.fail(f"{op} on {input_name}: {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        self._record(time.perf_counter() - t0)
        return out

    def _record(self, dt: float) -> None:
        self.latencies.append(dt)
        self.segments.append(len(self.cal.samples))
        if not self.warmup:
            self.cal.maybe()

    def normalized(self) -> list[float]:
        """Latencies in reference seconds."""
        return [dt * self.cal.factor(seg) for dt, seg in zip(self.latencies, self.segments)]

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1

    def check(self, cond, what: str) -> None:
        """Record a wrong result when ``cond()`` is false."""
        if not self.warmup and not cond():
            self.wrong[what] = self.wrong.get(what, 0) + 1

    @property
    def correct(self) -> bool:
        return not self.wrong

    def report(self) -> list[str]:
        lines = [f"failed x{n}: {w}" for w, n in self.failures.items()]
        lines += [f"wrong x{n}: {w}" for w, n in self.wrong.items()]
        return lines


def run_round(tasks, meter: Meter, seed: int, round_no: int) -> None:
    order = list(tasks)
    random.Random(f"order:{seed}:{round_no}").shuffle(order)
    for task in order:
        try:
            task(meter)
        except OpFailed:
            pass


def run_for(make_tasks, meter: Meter, seed: int, seconds: float) -> float:
    """Whole rounds until ``seconds`` have passed and MIN_OPS operations
    were made; returns the elapsed wall time."""
    start = time.perf_counter()
    meter.cal.slice()
    round_no = 0
    while True:
        run_round(make_tasks(round_no), meter, seed, round_no)
        round_no += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and meter.attempted >= MIN_OPS:
            meter.cal.slice()
            return elapsed


def latency_metrics(meter: Meter, raw: bool = False) -> dict:
    lat = meter.latencies if raw else meter.normalized()
    return {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }


def format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
