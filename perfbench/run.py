"""Benchmark of the repro pipelines: replay, commit, http and sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload commit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload commit --seed 1 --seconds 30 --trace 1

``--trace 0`` measures one workload and prints its end-to-end metrics;
``--trace 1`` runs every workload untraced and then traced and prints
the per-layer metrics.  The last stdout line is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it is the run's record (host fingerprint, resolved knobs, raw samples).
A failed correctness gate exits 1 and prints no result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

from harness.common import (  # noqa: E402
    REFERENCE_WORK_S,
    BenchFailure,
    HostSpeed,
    Tracer,
    clear_repro_env,
    emit,
    host_fingerprint,
    measure_rounds,
    median,
    metric,
    peak_rss_mb,
    percentile,
    resolved_knobs,
    summarize,
)

WORKLOADS = ("replay", "commit", "http", "sweep")
#: Imports (each in a fresh interpreter) and builds per run; ``setup_s``
#: reports the median of each.
SETUP_REPEATS = 5
#: Fewest timed rounds a run reports, however slow the host.
MIN_ROUNDS = 3


def workload_class(name: str):
    """The workload class behind ``--workload`` (imported lazily)."""
    module = importlib.import_module(f"harness.{name}")
    return getattr(module, name.capitalize())


def import_probe_s(modules) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def untraced(name: str, seed: int, seconds: float, scale: str, workdir: Path):
    """One workload's end-to-end metrics (tracing off)."""
    cls = workload_class(name)
    # This process imports untimed; setup_s times fresh interpreters.
    for module in cls.imports:
        importlib.import_module(module)
    import_s = [import_probe_s(cls.imports) for _ in range(SETUP_REPEATS)]
    build_s, wl = [], None
    try:
        for i in range(SETUP_REPEATS):
            if wl is not None:
                # Free the previous build first, so peak_rss_mb counts one.
                wl.close()
                wl = None
                gc.collect()
            start = time.perf_counter()
            wl = cls(seed, scale, _fresh(workdir / f"build-{i}"))
            build_s.append(time.perf_counter() - start)
        wl.prepare_round()
        wl.run_round(None)
        wl.finish_round()
        # Rounds are scaled to the host's full speed (see HostSpeed); the
        # raw numbers go to the record.  setup_s stays raw: most of it is
        # the import in a fresh interpreter, which follows the sampled
        # speed only weakly, so scaling it over-corrects.
        speed = HostSpeed()
        rounds = measure_rounds(wl, seconds, MIN_ROUNDS, speed=speed)
        if name == "http":
            rss = wl.peak_rss
        else:
            rss = peak_rss_mb(include_children=(name == "sweep"))
    finally:
        if wl is not None:
            wl.close()
    rate, latencies = summarize(rounds)
    raw_rate, raw_latencies = summarize([(r, lat, 1.0) for r, lat, _ in rounds])
    metrics = {
        "setup_s": metric(median(import_s) + median(build_s), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "ops_per_s": metric(rate, "1/s"),
        "p50_ms": metric(median(latencies) * 1e3, "ms"),
    }
    # p99 stays in the record: on a shared disk the commit tail (snapshot
    # batches meeting fsync stalls) spread far beyond any usable bound.
    record = {
        "import_s": import_s,
        "build_s": build_s,
        "round_rates": [r for r, _, _ in rounds],
        "latency_samples": len(latencies),
        "raw": {"ops_per_s": raw_rate, "p50_ms": median(raw_latencies) * 1e3,
                "p99_ms": percentile(raw_latencies, 99) * 1e3},
        "host_speed": {"round_factors": [f for _, _, f in rounds],
                       "reference_work_ms": REFERENCE_WORK_S * 1e3,
                       "mean_sample_ms": statistics.fmean(speed.samples) * 1e3,
                       "samples": len(speed.samples)},
    }
    return wl.attempted, wl.failed, metrics, record


def traced(first: str, seed: int, seconds: float, scale: str, workdir: Path):
    """Every workload untraced, then traced: per-layer metrics and overhead."""
    from harness.http import batch_of_one_p50_s

    order = [first] + [w for w in WORKLOADS if w != first]
    budget_s = seconds / len(order)
    metrics: "dict[str, dict]" = {}
    record: "dict[str, object]" = {}
    attempted = failed = 0
    spans_dir = _fresh(OUT / f"spans-{seed}-{os.getpid()}")
    for name in order:
        cls = workload_class(name)
        wl = cls(seed, scale, _fresh(workdir / name))
        try:
            wl.prepare_round()
            wl.run_round(None)
            wl.finish_round()
            # Alternate untraced and traced rounds so host drift hits
            # both sides of the overhead ratio alike.
            plain, with_spans, tracer = [], [], Tracer()
            deadline = time.perf_counter() + budget_s
            while len(with_spans) < 2 or time.perf_counter() < deadline:
                plain += measure_rounds(wl, 0, 1)
                with_spans += measure_rounds(wl, 0, 1, tracer)
            if name == "http":
                layers = wl.layer_metrics(tracer, batch_of_one_p50_s(
                    wl.instance, wl.records, workdir / name, tracer))
            else:
                layers = wl.layer_metrics(tracer)
        finally:
            wl.close()
        tracer.write(spans_dir / f"{name}.jsonl")
        layers[f"trace.overhead.{name}"] = (
            summarize(plain)[0] / summarize(with_spans)[0], "ratio")
        metrics.update({k: metric(v, unit) for k, (v, unit) in layers.items()})
        record[name] = {"untraced_rates": [r for r, _, _ in plain],
                        "traced_rates": [r for r, _, _ in with_spans],
                        "spans": len(tracer.spans)}
        attempted += wl.attempted
        failed += wl.failed
    record["spans_dir"] = str(spans_dir.relative_to(ROOT))
    return attempted, failed, metrics, record


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run (used by selftest.py)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a repro checkout",
              file=sys.stderr)
        return 2
    cleared = clear_repro_env()
    sys.path.insert(0, str(SRC))
    workdir = _fresh(OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = traced if args.trace else untraced
        attempted, failed, metrics, record = run(
            args.workload, args.seed, args.seconds, args.scale, workdir)
        host = host_fingerprint(workdir)
    except BenchFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["host.fsync_probe_ms"] = metric(host["fsync_probe_ms"], "ms")
        metrics["host.nproc"] = metric(host["nproc"], "count")
    emit({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "host": host,
        "knobs_resolved": resolved_knobs(), "env_cleared": cleared,
        "knobs_set": {"commit.commit_batch": 64, "http.connections": "nproc",
                      "sweep.workers": "nproc", "sweep.checkpoint": True},
        "wall_s": time.perf_counter() - STARTED, **record}})
    emit({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
