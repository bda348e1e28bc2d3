"""``replay``: one drawn session trace through ``simulate_trace`` under all four policies."""

from __future__ import annotations

import dataclasses
import time

from harness.common import Traced, Tracer, Workload, median, require

POLICIES = ("allocate", "threshold", "density", "random")

#: (streams, households, trace events) per scale.  Sessions (mean 0.5)
#: are short against each stream's inter-arrival (~1 per time unit at
#: rate 100 over 100 streams), so most events are policy decisions.
SIZES = {"full": (100, 400, 3_000), "tiny": (30, 40, 300)}
RATE = 100.0
MEAN_DURATION = 0.5
POPULARITY = 0.8


def _policies() -> "dict[str, object]":
    """Fresh built-in policies with their default parameters."""
    from repro.sim import AllocatePolicy, DensityPolicy, RandomPolicy, ThresholdPolicy

    return {"allocate": AllocatePolicy(), "threshold": ThresholdPolicy(),
            "density": DensityPolicy(), "random": RandomPolicy()}


class Replay(Workload):
    """Batch replay of one trace; op = trace event, four policies per round."""

    imports = ("repro.sim", "repro.instances.workloads")

    def __init__(self, seed: int, scale: str, workdir) -> None:
        from repro.core.indexed import index_instance
        from repro.instances.workloads import iptv_neighborhood_workload
        from repro.sim import ArrivalModel, draw_trace_arrays

        streams, users, events = SIZES[scale]
        self.instance = iptv_neighborhood_workload(
            num_channels=streams, num_households=users, seed=seed)
        index_instance(self.instance)
        self.horizon = events / RATE
        start = time.perf_counter()
        self.trace = draw_trace_arrays(
            self.instance, ArrivalModel(RATE, MEAN_DURATION, POPULARITY),
            self.horizon, seed)
        self.draw_s = time.perf_counter() - start
        self.reference: "dict[str, dict] | None" = None
        self.reports: "dict[str, object]" = {}

    def prepare_round(self) -> None:
        self.policies = _policies()

    def run_round(self, tracer: "Tracer | None") -> "tuple[int, list[float]]":
        from repro.sim import simulate_trace

        start = time.perf_counter()
        for label, policy in self.policies.items():
            if tracer is None:
                self.reports[label] = simulate_trace(
                    self.instance, policy, self.trace, self.horizon)
            else:
                span = tracer.begin(f"sim.replay.{label}")
                traced = Traced(policy, tracer, {
                    "on_offer_indexed": f"policy.offer.{label}",
                    "on_release_indexed": f"policy.release.{label}"})
                self.reports[label] = simulate_trace(
                    self.instance, traced, self.trace, self.horizon)
                tracer.end(span)
        # The batch job a user waits for is the whole four-policy
        # comparison, so the round is the latency sample.
        latency = time.perf_counter() - start
        ops = len(POLICIES) * len(self.trace)
        self.attempted += ops
        return ops, [latency]

    def finish_round(self) -> None:
        """Gate: every round's reports equal the warm-up's; Allocate never clipped."""
        reports = {k: dataclasses.asdict(r) for k, r in self.reports.items()}
        require(reports["allocate"]["policy_violations"] == 0,
                "Allocate answered with infeasible receivers")
        if self.reference is None:
            self.reference = reports
        require(reports == self.reference,
                "replay reports differ between rounds on the same trace")

    def layer_metrics(self, tracer: Tracer) -> "dict[str, tuple[float, str]]":
        ref = self.reference
        out: "dict[str, tuple[float, str]]" = {
            "sim.draw_ms": (self.draw_s * 1e3, "ms"),
            "sim.events": (len(self.trace), "count"),
        }
        for label in POLICIES:
            offers = ref[label]["offered"]
            replays = tracer.durations(f"sim.replay.{label}")
            hooks = sum(tracer.durations(f"policy.offer.{label}"))
            out[f"sim.offers.{label}"] = (offers, "count")
            out[f"sim.admitted.{label}"] = (ref[label]["admitted"], "count")
            out[f"sim.replay_ms.{label}"] = (median(replays) * 1e3, "ms")
            out[f"sim.policy_us_per_offer.{label}"] = (
                hooks / (offers * len(replays)) * 1e6, "us")
            out[f"sim.kernel_self_ms.{label}"] = (
                median(tracer.self_times(f"sim.replay.{label}")) * 1e3, "ms")
        out["allocate.offer_us.replay"] = (
            median(tracer.durations("policy.offer.allocate")) * 1e6, "us")
        out["allocate.release_us.replay"] = (
            median(tracer.durations("policy.release.allocate")) * 1e6, "us")
        out["allocate.accept_ratio.replay"] = (
            ref["allocate"]["admitted"] / ref["allocate"]["offered"], "ratio")
        return out
