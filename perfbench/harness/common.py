"""Shared measurement pieces: rounds, percentiles, spans, host and knob records."""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


class BenchFailure(Exception):
    """A correctness gate failed: the run must report no numbers."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`BenchFailure` unless ``condition`` holds."""
    if not condition:
        raise BenchFailure(message)


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def metric(value: float, unit: str) -> "dict[str, object]":
    """One metric entry of the result line."""
    return {"value": float(value), "unit": unit}


class Tracer:
    """In-memory span recorder: name, start, end, parent and request id.

    ``begin`` returns the span's index and makes it the parent of spans
    begun before its ``end``; nothing is written until :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    def begin(self, name: str, rid=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, rid])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def discard_last(self, index: int) -> None:
        """Drop a just-ended span that turned out to do no work (no children)."""
        if index == len(self.spans) - 1:
            self.spans.pop()

    def durations(self, name: str) -> "list[float]":
        """Durations (seconds) of every span called ``name``."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> "list[float]":
        """Self time (seconds) of each ``name`` span: duration minus its children."""
        child_ns: "dict[int, int]" = {}
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] = child_ns.get(span[3], 0) + span[2] - span[1]
        return [
            (s[2] - s[1] - child_ns.get(i, 0)) / 1e9
            for i, s in enumerate(self.spans) if s[0] == name
        ]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start/end ns, parent, rid)."""
        with open(path, "w") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent,
                                         "rid": rid}) + "\n")


class Traced:
    """Attribute-forwarding proxy whose listed methods record spans.

    Wraps objects the benchmark creates (a policy, an allocator, a WAL
    and its sink); every other attribute reads through to the wrapped
    object, so the program cannot tell the difference.
    """

    def __init__(self, inner, tracer: Tracer, spans: "dict[str, str]") -> None:
        self._inner = inner
        for method, span_name in spans.items():
            setattr(self, method, self._wrap(getattr(inner, method), tracer, span_name))

    @staticmethod
    def _wrap(fn, tracer: Tracer, span_name: str):
        def traced(*args, **kwargs):
            span = tracer.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return traced

    def __getattr__(self, name):
        return getattr(self._inner, name)


#: Seconds one pass of :func:`reference_work` takes on the reference host
#: (a 2-vCPU Xeon VM) in its fast state.  It only sets the scale of the
#: normalised times: they read as that host's times at full speed.
REFERENCE_WORK_S = 0.00045


def reference_work() -> int:
    """A fixed mix of the interpreter work the program does: dict updates, JSON, small numpy calls."""
    import numpy

    counts: "dict[int, int]" = {}
    for i in range(3000):
        key = (i * 7919) % 251
        counts[key] = counts.get(key, 0) + 1
    vec = numpy.arange(64, dtype=float)
    for _ in range(100):
        vec = numpy.minimum(vec * 1.0001, 100.0)
    return len(json.dumps(counts, sort_keys=True)) + int(vec[0])


class HostSpeed:
    """How fast the shared host runs a fixed computation, sampled between timed steps.

    The reference host's CPU flips between a fast and a slow state every
    few milliseconds, in a proportion that drifts over seconds and
    minutes, and every raw time of a run follows that drift.
    :meth:`sample` times :func:`reference_work` ``SAMPLES`` times,
    outside any timed step; a step's :meth:`factor` comes from the samples
    taken just before and just after it, and its raw time times the
    factor is its time at full speed.
    """

    #: Passes per sample: about 15-30 ms, several flips of the host's state.
    SAMPLES = 32

    def __init__(self) -> None:
        self.samples: "list[float]" = []
        reference_work()

    def sample(self) -> float:
        """Mean seconds of one pass of the reference work, right now."""
        times = []
        for _ in range(self.SAMPLES):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        self.samples += times
        return statistics.fmean(times)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Raw-to-full-speed factor of a step sampled ``before`` and ``after`` it."""
        return 2 * REFERENCE_WORK_S / (before + after)


class Workload:
    """The round protocol run.py drives; the hooks default to doing nothing.

    ``run_round(tracer)`` does one fixed-size round and returns
    ``(ops, latencies)``; only it is timed.  ``prepare_round`` and
    ``finish_round`` set up and check around it (a failed check raises
    :class:`BenchFailure`); ``close`` releases what the workload holds.
    """

    attempted = 0
    failed = 0

    def prepare_round(self) -> None:
        pass

    def finish_round(self) -> None:
        pass

    def close(self) -> None:
        pass


def measure_rounds(workload, seconds: float, min_rounds: int,
                   tracer: "Tracer | None" = None,
                   speed: "HostSpeed | None" = None) -> "list[tuple[float, list[float], float]]":
    """Time fixed-size rounds for ``seconds``; returns ``(rate, latencies, factor)`` per round.

    The caller has already run the warm-up round.  A round's rate is its
    operation count over the wall time of ``run_round`` alone (the
    workload's ``prepare_round``/``finish_round`` set up and check
    outside it); rate and latencies are raw.  With ``speed``, the host
    is sampled before every round and after the last, and ``factor`` is
    the round's :meth:`HostSpeed.factor`; without, it is 1.
    """
    rounds: "list[tuple[float, list[float], float]]" = []
    deadline = time.perf_counter() + seconds
    before = speed.sample() if speed is not None else 0.0
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        workload.prepare_round()
        start = time.perf_counter()
        ops, latencies = workload.run_round(tracer)
        elapsed = time.perf_counter() - start
        workload.finish_round()
        factor = 1.0
        if speed is not None:
            after = speed.sample()
            factor, before = HostSpeed.factor(before, after), after
        rounds.append((ops / elapsed, latencies, factor))
    return rounds


def summarize(rounds: "list[tuple[float, list[float], float]]") -> "tuple[float, list[float]]":
    """Median per-round rate and every latency sample pooled, both scaled to full speed."""
    return (median([rate / factor for rate, _, factor in rounds]),
            [x * factor for _, lat, factor in rounds for x in lat])


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak RSS (MiB) of this process, or of it and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        own = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return own / 1024.0


def process_peak_rss_mb(pid: int) -> "float | None":
    """Peak RSS (MiB) of a live process from ``/proc`` (None where unavailable)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fsync_probe_ms(workdir: Path, count: int = 64) -> float:
    """Median latency (ms) of a 4 KiB append + fsync in ``workdir``."""
    path = workdir / "fsync-probe.bin"
    block = b"\0" * 4096
    samples = []
    with open(path, "ab") as handle:
        for _ in range(count):
            start = time.perf_counter()
            handle.write(block)
            handle.flush()
            os.fsync(handle.fileno())
            samples.append(time.perf_counter() - start)
    path.unlink()
    return median(samples) * 1e3


def host_fingerprint(workdir: Path) -> "dict[str, object]":
    """Cores, interpreter and library versions, and an fsync probe."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "fsync_probe_ms": fsync_probe_ms(workdir),
    }


def clear_repro_env() -> "list[str]":
    """Remove every ``$REPRO_*`` variable so each workload runs on defaults."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def resolved_knobs() -> "dict[str, object]":
    """Engines and serve/sweep settings as the program resolves them by default."""
    from repro import config
    from repro.serve import ServeConfig

    return {
        "serve_config": dataclasses.asdict(ServeConfig().validated()),
        "solver_engine": config.resolve_engine_setting("solver", None),
        "gen_engine": config.resolve_engine_setting("generation", None),
        "sim_engine": config.resolve_engine_setting("simulation", None),
        "charge_resync": config.resolve_charge_resync(None),
        "store_window": config.resolve_store_window(None),
        "store_chunk": config.resolve_store_chunk(None),
        "serve_shards": config.resolve_serve_shards(None),
        "sweep_transport": config.resolve_sweep_transport(None),
    }


def emit(obj: "dict[str, object]") -> None:
    """Print one JSON line to stdout."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
