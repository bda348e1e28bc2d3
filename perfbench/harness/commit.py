"""``commit``: in-process ``AdmissionCore`` group commit, one caller, closed loop."""

from __future__ import annotations

import shutil
import time

from harness.common import Traced, Tracer, Workload, median, percentile, require

#: Decisions per ``execute_batch`` call: the one knob set on purpose.
COMMIT_BATCH = 64

#: (streams, households) per scale.  A small population keeps the
#: allocator from drowning the WAL and snapshot layers, while the egress
#: budget still binds (Allocate admits and rejects).  A batch of 64
#: distinct decisions needs a catalog well above 64 streams.
SIZES = {"full": (100, 100), "tiny": (100, 20)}
#: Snapshot periods per round, so every round commits the same number
#: of snapshots whatever the default ``snapshot_every`` is.
ROUND_SNAPSHOTS = {"full": 4, "tiny": 1}
RATE = 100.0
MEAN_DURATION = 0.5
POPULARITY = 0.8


def _trace_snapshots(core, tracer: Tracer) -> None:
    """Record a span for each ``maybe_snapshot`` call that wrote a snapshot."""
    inner = core.maybe_snapshot

    def traced(*args, **kwargs):
        span = tracer.begin("snapshot")
        name = inner(*args, **kwargs)
        tracer.end(span)
        if name is None:
            tracer.discard_last(span)
        return name

    core.maybe_snapshot = traced


def build_ops(codes, streams, count: int, batches: int, execute):
    """Cut a session trace into ``batches`` valid batches, executing each.

    Arrivals for a carried (or in-flight) stream are skipped, as the
    simulator skips them.  A departure whose offer is still in the
    un-acknowledged batch waits for the next one, so a release is only
    ever sent after its offer was acked as admitted.  Returns the
    batches (reusable: the decisions they got are deterministic).
    """
    active: "set[int]" = set()
    sessions: "dict[int, int]" = {}
    inflight: "set[int]" = set()
    deferred: "list[int]" = []
    out: "list[list[tuple]]" = []
    codes = iter(codes)
    while len(out) < batches:
        ops: "list[tuple]" = []
        meta: "list[int]" = []

        def release(position: int) -> None:
            k = sessions.pop(position)
            active.discard(k)
            ops.append(("release", k, None))
            meta.append(position)

        carry, deferred = deferred, []
        for position in carry:
            if position in sessions:
                if len(ops) < COMMIT_BATCH:
                    release(position)
                else:
                    deferred.append(position)
        while len(ops) < COMMIT_BATCH:
            code = next(codes, None)
            require(code is not None, "commit trace too short for the round size")
            code = int(code)
            if code < count:
                k = int(streams[code])
                if k in active:
                    continue
                active.add(k)
                inflight.add(code)
                ops.append(("offer", k, None))
                meta.append(code)
            else:
                position = code - count
                if position in sessions:
                    release(position)
                elif position in inflight:
                    deferred.append(position)
        results = execute(ops)
        for (op, k, _), position, result in zip(ops, meta, results):
            require(isinstance(result, dict), f"commit op {op} {k} refused: {result}")
            if op == "offer":
                inflight.discard(position)
                if result["admitted"]:
                    sessions[position] = k
                else:
                    active.discard(k)
        out.append(ops)
    return out


class Commit(Workload):
    """Batches of 64 decisions through ``execute_batch``; op = acked decision."""

    imports = ("repro.serve", "repro.sim", "repro.instances.workloads")

    def __init__(self, seed: int, scale: str, workdir) -> None:
        from repro.core.indexed import index_instance
        from repro.instances.workloads import iptv_neighborhood_workload
        from repro.serve import AdmissionCore, ServeConfig
        from repro.sim import ArrivalModel, draw_trace_arrays
        from repro.sim.engine import merged_replay_order

        streams, users = SIZES[scale]
        self.config = ServeConfig(commit_batch=COMMIT_BATCH)
        self.snapshot_every = self.config.snapshot_every
        self.batches_per_round = -(-ROUND_SNAPSHOTS[scale] * self.snapshot_every
                                   // COMMIT_BATCH)
        self.workdir = workdir
        self.instance = iptv_neighborhood_workload(
            num_channels=streams, num_households=users, seed=seed)
        index_instance(self.instance)
        # Eight trace events per needed decision leave room for skipped
        # arrivals (streams already carried) on small catalogs.
        horizon = 8 * COMMIT_BATCH * self.batches_per_round / RATE
        trace = draw_trace_arrays(
            self.instance, ArrivalModel(RATE, MEAN_DURATION, POPULARITY), horizon, seed)
        self.codes = merged_replay_order(trace.times, trace.times + trace.durations, horizon)
        self.streams = trace.streams
        self.count = len(trace)
        self.rounds = 0
        self.core = AdmissionCore.create(self.instance, self._root(), config=self.config)
        self.batches: "list[list[tuple]] | None" = None
        self.reference: "tuple | None" = None
        self.decisions = 0
        self.fsyncs = 0
        self.wal_bytes = 0

    def _root(self):
        return self.workdir / f"commit-{self.rounds}"

    def prepare_round(self) -> None:
        from repro.serve import AdmissionCore

        if self.core is None:
            self.core = AdmissionCore.create(self.instance, self._root(), config=self.config)

    def attach_tracer(self, tracer: Tracer) -> None:
        """Wrap this round's allocator, WAL and WAL sink in span-recording proxies."""
        core = self.core
        core.wal.sink = Traced(core.wal.sink, tracer, {
            "append": "wal.sink.append", "sync": "wal.sink.sync"})
        core.wal = Traced(core.wal, tracer, {"append_many": "wal.append_many"})
        core.allocator = Traced(core.allocator, tracer, {
            "offer_indexed": "allocate.offer", "release_indexed": "allocate.release"})
        _trace_snapshots(core, tracer)

    def run_round(self, tracer: "Tracer | None") -> "tuple[int, list[float]]":
        core = self.core
        if tracer is not None:
            self.attach_tracer(tracer)
        self.outcomes: "list[list]" = []
        latencies: "list[float]" = []
        if self.batches is None:
            def execute(ops):
                start = time.perf_counter()
                results = core.execute_batch(ops)
                latencies.append(time.perf_counter() - start)
                self.outcomes.append(results)
                return results
            self.batches = build_ops(self.codes, self.streams, self.count,
                                     self.batches_per_round, execute)
        else:
            for i, ops in enumerate(self.batches):
                start = time.perf_counter()
                span = tracer.begin("serve.batch", i) if tracer is not None else None
                self.outcomes.append(core.execute_batch(ops))
                if span is not None:
                    tracer.end(span)
                latencies.append(time.perf_counter() - start)
        ops = sum(len(b) for b in self.batches)
        self.attempted += ops
        return ops, latencies

    def _expected_snapshots(self) -> int:
        snapshots, seq, last = 0, 0, 0
        for ops in self.batches:
            seq += len(ops)
            if seq - last >= self.snapshot_every:
                snapshots, last = snapshots + 1, seq
        return snapshots

    def finish_round(self) -> None:
        """Gates: all acked, digest equal across rounds and to a restore, fsyncs == batches."""
        from repro.serve import AdmissionCore

        core, root = self.core, self._root()
        answers = []
        for results in self.outcomes:
            for result in results:
                if not isinstance(result, dict):
                    self.failed += 1
                    continue
                answers.append(tuple(result.get("user_index", ())))
        require(self.failed == 0, f"{self.failed} commit decisions were refused")
        digest = core.state_digest()
        records = core.next_seq
        fsyncs = core.wal.sink.sync_count
        core.close()
        self.core = None
        require(fsyncs == len(self.batches) + self._expected_snapshots(),
                f"{fsyncs} fsyncs for {len(self.batches)} batches "
                f"and {self._expected_snapshots()} snapshots")
        restored = AdmissionCore.restore(root)
        try:
            require(restored.state_digest() == digest,
                    "restored commit directory diverges from the live core")
        finally:
            restored.close()
        if self.reference is None:
            self.reference = (digest, answers)
        require((digest, answers) == self.reference,
                "commit decisions or digest differ between rounds")
        self.decisions, self.fsyncs = records, fsyncs
        self.wal_bytes = core.wal_path.stat().st_size
        shutil.rmtree(root)
        self.rounds += 1

    def close(self) -> None:
        if self.core is not None:
            self.core.close()
            self.core = None

    def layer_metrics(self, tracer: Tracer) -> "dict[str, tuple[float, str]]":
        flat = [op for ops in self.batches for op in ops]
        answers = self.reference[1]
        offered = sum(1 for op, _, _ in flat if op == "offer")
        admitted = sum(1 for (op, _, _), users in zip(flat, answers)
                       if op == "offer" and users)
        batch_s = tracer.durations("serve.batch")
        traced_ops = len(flat) * len(batch_s) // len(self.batches)
        appends = tracer.durations("wal.sink.append")
        snaps = tracer.durations("snapshot")
        return {
            "allocate.offer_us.commit": (median(tracer.durations("allocate.offer")) * 1e6, "us"),
            "allocate.release_us.commit": (
                median(tracer.durations("allocate.release")) * 1e6, "us"),
            "allocate.accept_ratio.commit": (admitted / offered, "ratio"),
            "serve.batch_ms.p50": (median(batch_s) * 1e3, "ms"),
            "serve.batch_ms.p99": (percentile(batch_s, 99) * 1e3, "ms"),
            "serve.core_self_us_per_op": (
                sum(tracer.self_times("serve.batch")) / traced_ops * 1e6, "us"),
            "wal.encode_us_per_record": (
                sum(tracer.self_times("wal.append_many")) / traced_ops * 1e6, "us"),
            "wal.append_ms.p50": (median(appends) * 1e3, "ms"),
            "wal.append_ms.p99": (percentile(appends, 99) * 1e3, "ms"),
            "wal.fsyncs_per_decision": (self.fsyncs / self.decisions, "ratio"),
            "wal.bytes_per_decision": (self.wal_bytes / self.decisions, "B"),
            "snapshot.count": (len(snaps), "count"),
            "snapshot.ms.p50": (median(snaps) * 1e3, "ms"),
            "snapshot.ms.max": (max(snaps) * 1e3, "ms"),
        }
