"""E16 — batched decision core: kernel-selecting greedy + batched replay.

Two decision-rate hot paths from earlier PRs still pay one Python-level
iteration per *decision*:

1. The single-pick greedy kernel (``repro.core.indexed.greedy_kernel``)
   recomputes the effectiveness key and takes one exact argmax per
   accepted stream — O(streams) numpy work per pick, ~1 000 picks on a
   catalog-scale instance.  The multi-pick kernel
   (``repro.core.batched.greedy_kernel_batched``) selects a whole round
   by ``argpartition``, proves the round non-interacting against
   residual budgets, and commits it with one vectorized residual update
   — falling back to single picks only for the conflicting tail.  It
   loses where rounds conflict, so production Greedy runs whichever
   kernel ``repro.core.batched.select_greedy_kernel`` predicts is
   faster; this bench times that selected path.
2. The chunked replay kernel (``engine="chunked"``) already skips
   no-decision runs, but answers each surviving decision with one
   ``on_offer_indexed`` call.  ``BatchedVideoSim`` (``engine="batched"``)
   groups consecutive decision arrivals between departures and answers
   the group through one vectorized ``on_offer_batch``.

Both comparisons assert *float-identical* outputs — the batched paths
reproduce the sequential engines' IEEE accumulation order exactly (the
contract fuzzed in ``tests/test_indexed_parity.py`` and
``tests/test_sim_indexed.py``).

Asserted floors at the reference scale (10 000 users × 1 000 streams for
the solver; ~10⁶ events for replay): ≥ 10× for the selected greedy path
over the single-pick kernel and ≥ 3× for batched replay under a
rejection-heavy threshold workload (tight budget ⇒ long all-reject runs
⇒ large groups).  Set ``REPRO_E16_SCALE=small`` for the CI smoke, where
fixed numpy costs dominate and the floors drop accordingly.

A regime grid (same at both scales) prints both kernels' times and the
selector's choice on unit-skew cells from dense/tight to sparse/generous
and on each Greedy run inside ``solve_mmd`` on the repo benchmark's
``sweep`` cells.  Where one kernel is at least :data:`CLEAR_WIN` times
faster, the selector must have chosen it.
"""

from __future__ import annotations

import os

import numpy as np

import repro.core.greedy as greedy_module
from repro.core.batched import greedy_kernel_batched, select_greedy_kernel
from repro.core.indexed import greedy_kernel
from repro.core.solver import solve_mmd
from repro.instances.generators import sweep_cell
from repro.instances.vectorized import generate_unit_skew_smd
from repro.sim.indexed import draw_trace_arrays
from repro.sim.kernel import BatchedVideoSim, ChunkedVideoSim
from repro.sim.policies import ThresholdPolicy
from repro.sim.simulation import ArrivalModel
from repro.util.tables import Table
from repro.util.timing import Timer

from benchmarks.common import run_once, stage_json, stage_section

FULL_SCALE = os.environ.get("REPRO_E16_SCALE", "full") != "small"

#: Solver scenario: catalog-scale greedy with rare pick interactions
#: (sparse interest, generous caps) so rounds stay large.
G_STREAMS = 1_000 if FULL_SCALE else 200
G_USERS = 10_000 if FULL_SCALE else 1_000
G_DENSITY = 0.001 if FULL_SCALE else 0.005
G_BUDGET_FRACTION = 0.6
#: Generous utility caps keep pick interactions rare (a user's cap
#: absorbs all its interests), the regime where rounds stay large.
G_CAP_FRACTION = 2.0

#: Replay scenario: tight budget under a threshold policy — the server
#: saturates early and long all-reject arrival runs form large groups.
R_STREAMS = 200 if FULL_SCALE else 100
R_USERS = 10_000 if FULL_SCALE else 1_000
R_EVENTS = 1_000_000 if FULL_SCALE else 50_000
R_RATE = 100.0
R_HORIZON = R_EVENTS / R_RATE
R_MODEL = ArrivalModel(rate=R_RATE, mean_duration=R_HORIZON / 2.0,
                       popularity_exponent=1.0)

#: Reference-scale floors; the small CI smoke runs at a fraction of the
#: volume where constant numpy costs weigh more.
MIN_GREEDY_SPEEDUP = 10.0 if FULL_SCALE else 2.0
MIN_REPLAY_SPEEDUP = 3.0 if FULL_SCALE else 2.0

#: Regime grid, unit-skew cells: ``(label, streams, users, kwargs)`` for
#: ``generate_unit_skew_smd`` (seed 42) — four dense-to-sparse cells with
#: tight caps, then two with generous caps (the second is the
#: full-scale solver scenario above).
UNIT_SKEW_GRID = [
    ("20×50 d0.2 cap0.5", 20, 50, {"density": 0.2, "cap_fraction": 0.5}),
    ("100×1k d0.05 cap0.5", 100, 1000, {"density": 0.05, "cap_fraction": 0.5}),
    ("500×5k d0.01 cap0.3", 500, 5000, {"density": 0.01, "cap_fraction": 0.3}),
    ("1k×10k d0.01 cap0.2", 1000, 10000, {"density": 0.01, "cap_fraction": 0.2}),
    ("200×1k d0.05 cap2.0", 200, 1000, {"density": 0.05, "cap_fraction": 2.0}),
    ("1k×10k d0.001 cap2.0", 1000, 10000,
     {"density": 0.001, "cap_fraction": 2.0, "budget_fraction": 0.6}),
]
#: Regime grid, the repo benchmark's ``sweep`` cells (``sweep_cell``,
#: seed 0): ``(label, streams, users, skew, kwargs)``.  Each Greedy run
#: inside ``solve_mmd`` (one per skew class) is its own row.
SWEEP_GRID = [
    ("dense-tight a1", 100, 1000, 1.0, {"density": 0.05, "budget_fraction": 0.5}),
    ("dense-tight a4", 100, 1000, 4.0, {"density": 0.05, "budget_fraction": 0.5}),
    ("sparse-generous a1", 200, 1000, 1.0,
     {"density": 0.005, "budget_fraction": 2.0}),
    ("sparse-generous a4", 200, 1000, 4.0,
     {"density": 0.005, "budget_fraction": 2.0}),
]
#: A grid row asserts the selector's choice only when one kernel is at
#: least this many times faster there, so host noise cannot flip it.
CLEAR_WIN = 2.0


def _timed(fn) -> "tuple[float, object]":
    timer = Timer()
    with timer:
        result = fn()
    return timer.elapsed, result


def _race(paths: dict, rounds: int = 3) -> "tuple[dict, dict]":
    """Best-of-``rounds`` wall time per path, for cheap deterministic
    kernels (tens of ms, where scheduler noise would dominate a single
    shot).  The paths alternate within each round, so a host slowdown
    hits all of them alike.  Returns ``(best times, outputs)``."""
    best = dict.fromkeys(paths, float("inf"))
    out = {}
    for _ in range(rounds):
        for name, fn in paths.items():
            elapsed, out[name] = _timed(fn)
            best[name] = min(best[name], elapsed)
    return best, out


def _selected(idx, cap: float):
    """The production greedy path on arrays: select, then run."""
    return select_greedy_kernel(idx)(idx, cap, [])


def _greedy_runs(solve) -> list:
    """Lowered instances of every Greedy run inside ``solve()``."""
    runs = []

    def recording(idx):
        runs.append(idx)
        return select_greedy_kernel(idx)

    greedy_module.select_greedy_kernel = recording
    try:
        solve()
    finally:
        greedy_module.select_greedy_kernel = select_greedy_kernel
    return runs


def _grid() -> "list[tuple[str, object]]":
    """``(label, lowered instance)`` for every regime-grid row."""
    rows = [
        (label, generate_unit_skew_smd(streams, users, seed=42, **params))
        for label, streams, users, params in UNIT_SKEW_GRID
    ]
    for label, streams, users, skew, params in SWEEP_GRID:
        instance = sweep_cell(streams, users, skew, seed=0, **params)
        runs = _greedy_runs(lambda: solve_mmd(instance))
        for i, idx in enumerate(runs):
            suffix = f" class {i + 1}/{len(runs)}" if len(runs) > 1 else ""
            rows.append((label + suffix, idx))
    return rows


def _time_grid() -> "list[dict]":
    results = []
    for label, idx in _grid():
        cap = float(idx.budgets[0])
        best, out = _race({
            "single": lambda: greedy_kernel(idx, cap, []),
            "multi": lambda: greedy_kernel_batched(idx, cap, []),
            "selected": lambda: _selected(idx, cap),
        })
        results.append({
            "cell": label,
            "streams": idx.num_streams,
            "users": idx.num_users,
            "nnz": idx.nnz,
            "t_single_s": best["single"],
            "t_multi_s": best["multi"],
            "t_selected_s": best["selected"],
            "chosen": "multi" if select_greedy_kernel(idx) is greedy_kernel_batched
            else "single",
            "parity": _traces_identical(out["single"], out["multi"]),
        })
    return results


def _traces_identical(first, second) -> bool:
    """Float-identical greedy kernel outputs (order, receivers, cost)."""
    order_a, rejected_a, cost_a = first
    order_b, rejected_b, cost_b = second
    return (
        cost_a == cost_b
        and rejected_a == rejected_b
        and [k for k, _ in order_a] == [k for k, _ in order_b]
        and all(
            np.array_equal(ra, rb)
            for (_, ra), (_, rb) in zip(order_a, order_b)
        )
    )


def _reports_identical(first, second) -> bool:
    """Float-identical SimulationReports (the cross-engine contract)."""
    return (
        first.utility_time == second.utility_time
        and first.offered == second.offered
        and first.admitted == second.admitted
        and first.deliveries == second.deliveries
        and first.policy_violations == second.policy_violations
        and first.per_user_utility == second.per_user_utility
        and first.server_utilization == second.server_utilization
        and first.peak_server_utilization == second.peak_server_utilization
    )


def bench_e16_batched(benchmark):
    def experiment():
        # -- multi-pick greedy ------------------------------------------
        idx = generate_unit_skew_smd(
            G_STREAMS, G_USERS, seed=42, density=G_DENSITY,
            budget_fraction=G_BUDGET_FRACTION, cap_fraction=G_CAP_FRACTION,
        )
        cap = float(idx.budgets[0])
        best, out = _race({
            "single": lambda: greedy_kernel(idx, cap, []),
            "selected": lambda: _selected(idx, cap),
        })
        greedy_res = {
            "t_single": best["single"],
            "t_selected": best["selected"],
            "picks": len(out["single"][0]),
            "rejected": len(out["single"][1]),
            "parity": _traces_identical(out["single"], out["selected"]),
        }

        # -- batched replay ---------------------------------------------
        sim_idx = generate_unit_skew_smd(
            R_STREAMS, R_USERS, seed=43, density=0.01, budget_fraction=0.02
        )
        trace = draw_trace_arrays(sim_idx, R_MODEL, R_HORIZON, seed=7)
        chunked_sim = ChunkedVideoSim(sim_idx, ThresholdPolicy())
        batched_sim = BatchedVideoSim(sim_idx, ThresholdPolicy())
        t_chunked, chunked_report = _timed(
            lambda: chunked_sim.run_trace(trace, R_HORIZON)
        )
        t_batched, batched_report = _timed(
            lambda: batched_sim.run_trace(trace, R_HORIZON)
        )
        replay_res = {
            "t_chunked": t_chunked,
            "t_batched": t_batched,
            "events": len(trace),
            "offered": chunked_report.offered,
            "admitted": chunked_report.admitted,
            "parity": _reports_identical(chunked_report, batched_report),
        }
        return {"greedy": greedy_res, "replay": replay_res, "grid": _time_grid()}

    data = run_once(benchmark, experiment)
    g, r, grid = data["greedy"], data["replay"], data["grid"]
    g_speedup = g["t_single"] / max(g["t_selected"], 1e-9)
    grid_table = Table(["grid cell", "nnz", "single-pick", "multi-pick",
                        "selected", "chosen"])
    for row in grid:
        grid_table.add_row([
            row["cell"],
            f"{row['nnz']:,}",
            f"{row['t_single_s'] * 1e3:.2f} ms",
            f"{row['t_multi_s'] * 1e3:.2f} ms",
            f"{row['t_selected_s'] * 1e3:.2f} ms",
            row["chosen"],
        ])
    r_speedup = r["t_chunked"] / max(r["t_batched"], 1e-9)

    stage_section(
        "E16",
        f"Batched decision core: kernel-selecting greedy "
        f"({G_USERS:,} users × {G_STREAMS:,} streams) and batched replay "
        f"(~{R_EVENTS:,} events)",
        "repro.core.batched selects whole greedy rounds by argpartition, "
        "verifies non-interaction against residual budgets per round and "
        "commits accepted picks with one vectorized residual update, "
        "falling back to exact single picks only for the conflicting "
        "tail; production Greedy runs it only where the selector "
        "predicts long conflict-free rounds and light picks.  "
        "BatchedVideoSim groups consecutive decision arrivals "
        "between departures and answers each group through one "
        "vectorized on_offer_batch instead of per-decision policy calls.",
        ["path", "sequential", "batched", "speedup", "work"],
        [
            [
                "greedy (selected kernel)",
                f"{g['t_single'] * 1e3:.0f} ms",
                f"{g['t_selected'] * 1e3:.0f} ms",
                f"{g_speedup:.1f}x",
                f"{g['picks']:,} picks, {g['rejected']:,} rejected",
            ],
            [
                "threshold replay",
                f"{r['t_chunked']:.2f} s",
                f"{r['t_batched']:.2f} s",
                f"{r_speedup:.1f}x",
                f"{r['offered']:,} decisions of {r['events']:,} events",
            ],
        ],
        notes="Outputs are float-identical to the single-pick kernel and "
        "the chunked engine (asserted here; fuzzed in "
        "tests/test_indexed_parity.py and tests/test_sim_indexed.py).  "
        "The greedy win grows with round size (rare pick interactions); "
        "the replay win grows with the length of decision runs between "
        "departures — rejection-heavy workloads batch best.\n\n"
        "Regime grid (best of 3; 'selected' includes the selection):\n\n"
        + grid_table.render_markdown(),
    )
    stage_json(
        "e16",
        {
            "greedy": {
                "streams": G_STREAMS,
                "users": G_USERS,
                "t_single_s": g["t_single"],
                "t_selected_s": g["t_selected"],
                "speedup": g_speedup,
                "picks": g["picks"],
            },
            "grid": grid,
            "replay": {
                "events": r["events"],
                "offered": r["offered"],
                "admitted": r["admitted"],
                "t_chunked_s": r["t_chunked"],
                "t_batched_s": r["t_batched"],
                "speedup": r_speedup,
            },
            "scale": "full" if FULL_SCALE else "small",
        },
    )

    assert g["parity"], "selected greedy kernel diverged from single-pick"
    assert g["picks"] > 0, "degenerate greedy run: nothing accepted"
    assert g_speedup >= MIN_GREEDY_SPEEDUP, (
        f"selected greedy only {g_speedup:.1f}x faster than single-pick "
        f"(need ≥ {MIN_GREEDY_SPEEDUP}x)"
    )
    for row in grid:
        assert row["parity"], f"{row['cell']}: kernels diverged"
        fast, slow = sorted([row["t_single_s"], row["t_multi_s"]])
        if slow >= CLEAR_WIN * fast:
            faster = "single" if row["t_single_s"] == fast else "multi"
            assert row["chosen"] == faster, (
                f"{row['cell']}: selector chose {row['chosen']}-pick, but "
                f"{faster}-pick is {slow / fast:.1f}x faster there"
            )
    assert r["parity"], "batched replay diverged from chunked"
    assert r["admitted"] > 0, "degenerate replay: nothing admitted"
    assert r_speedup >= MIN_REPLAY_SPEEDUP, (
        f"batched replay only {r_speedup:.1f}x faster than chunked "
        f"(need ≥ {MIN_REPLAY_SPEEDUP}x)"
    )
