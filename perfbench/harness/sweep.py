"""``sweep``: ``run_experiment`` on two solve grids, local transport, ``workers = nproc``."""

from __future__ import annotations

import time
from pathlib import Path

from harness.common import Tracer, Workload, median, nproc, require

#: Grid cells of ROADMAP item 3's regime table, at (streams, users):
#: a dense, tight-budget cell (single-pick greedy wins) and a sparse,
#: generous-budget cell (multi-pick rounds win).  Each spec also spans
#: unit skew (§2 family) and skew 4 (bounded-skew family).
REGIMES = {
    "dense-tight": {"streams": 100, "users": 1000,
                    "params": {"density": 0.05, "budget_fraction": 0.5}},
    "sparse-generous": {"streams": 200, "users": 1000,
                        "params": {"density": 0.005, "budget_fraction": 2.0}},
}
SKEWS = (1.0, 4.0)
#: Seed replicates per cell (units per round = 2 regimes × 2 skews × this).
REPLICATES = {"full": 3, "tiny": 1}
TINY_SIZE = (20, 50)


def _cell(regime: str, skew: float) -> str:
    return f"{regime}-a{skew:g}"


class Sweep(Workload):
    """Solve grids through the runner; op = work unit."""

    imports = ("repro.experiments",)

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        from repro.experiments import ScenarioSpec

        self.workdir = workdir
        self.workers = nproc()
        self.specs = []
        for regime, cfg in REGIMES.items():
            streams, users = (cfg["streams"], cfg["users"]) if scale == "full" else TINY_SIZE
            self.specs.append(ScenarioSpec(
                name=regime, kind="solve", family="sweep", streams=(streams,),
                users=(users,), skews=SKEWS, replicates=REPLICATES[scale],
                base_seed=seed, params=dict(cfg["params"])).validate())
        self.rounds = 0
        self.reference: "list[str] | None" = None
        self.busy_s = 0.0
        self.wall_s = 0.0

    def prepare_round(self) -> None:
        self.runs = []

    def run_round(self, tracer: "Tracer | None") -> "tuple[int, list[float]]":
        from repro.experiments import run_experiment

        ops = 0
        start = time.perf_counter()
        for spec in self.specs:
            path = self.workdir / f"sweep-{self.rounds}-{spec.name}.jsonl"
            if tracer is None:
                run = run_experiment(spec, workers=self.workers, checkpoint=path)
                text = run.to_jsonl()
            else:
                span = tracer.begin("experiments.run", spec.name)
                run = run_experiment(spec, workers=self.workers, checkpoint=path)
                tracer.end(span)
                span = tracer.begin("experiments.aggregate", spec.name)
                text = run.to_jsonl()
                tracer.end(span)
            self.runs.append((run, text, path))
            ops += len(run.rows)
        elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        self.attempted += ops
        # The batch job a user waits for is the whole sweep, so the round
        # is the latency sample (per-unit stage times are per-layer).
        return ops, [elapsed]

    def finish_round(self) -> None:
        """Gates: aggregates byte-identical across rounds, every row feasible."""
        texts = []
        for run, text, path in self.runs:
            for row in run.rows:
                if not row["feasible"]:
                    self.failed += 1
                self.busy_s += float(row["runtime"])
            texts.append(text)
            path.unlink()
            Path(str(path) + ".lock").unlink(missing_ok=True)
        require(self.failed == 0, f"{self.failed} sweep rows are infeasible")
        if self.reference is None:
            self.reference = texts
        require(texts == self.reference, "sweep aggregates differ between rounds")
        self.rounds += 1

    def layer_metrics(self, tracer: Tracer) -> "dict[str, tuple[float, str]]":
        """Direct timed calls per cell, checked against the runner's rows."""
        from repro.core.indexed import index_instance
        from repro.core.solver import solve_mmd
        from repro.experiments.checkpoint import CheckpointWriter
        from repro.instances.generators import sweep_cell

        out: "dict[str, tuple[float, str]]" = {}
        checkpoint_s, rows_written = [], 0
        for run, _, _ in self.runs:
            by_unit = {int(row["unit"]): row for row in run.rows}
            samples: "dict[str, dict[str, list[float]]]" = {}
            for unit in run.spec.expand():
                cell = samples.setdefault(_cell(run.spec.name, unit.skew),
                                          {"gen": [], "index": [], "solve": []})
                t0 = time.perf_counter()
                generated = sweep_cell(unit.num_streams, unit.num_users, unit.skew,
                                       seed=unit.seed, **run.spec.params)
                t1 = time.perf_counter()
                lifted = generated.lift()
                index_instance(lifted)
                t2 = time.perf_counter()
                result = solve_mmd(lifted)
                t3 = time.perf_counter()
                require(result.utility == by_unit[unit.index]["utility"],
                        f"direct solve of unit {unit.index} disagrees with the runner")
                cell["gen"].append(t1 - t0)
                cell["index"].append(t2 - t1)
                cell["solve"].append(t3 - t2)
            for name, parts in samples.items():
                for stage, values in parts.items():
                    out[f"{stage}.ms.{name}"] = (median(values) * 1e3, "ms")
            path = self.workdir / f"sweep-probe-{run.spec.name}.jsonl"
            writer = CheckpointWriter(path, spec_hash=run.spec.spec_hash())
            try:
                for row in run.rows:
                    t0 = time.perf_counter()
                    writer.append(row)
                    checkpoint_s.append(time.perf_counter() - t0)
                    rows_written += 1
            finally:
                writer.close()
            path.unlink()
        out["experiments.checkpoint_ms_per_row"] = (sum(checkpoint_s) / rows_written * 1e3, "ms")
        out["experiments.aggregate_ms"] = (
            median(tracer.durations("experiments.aggregate")) * 1e3, "ms")
        out["experiments.idle_share"] = (
            1.0 - self.busy_s / (self.workers * self.wall_s), "ratio")
        return out
