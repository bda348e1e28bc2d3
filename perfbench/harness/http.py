"""``http``: a ``repro serve run`` subprocess driven over persistent ``ServeClient`` connections."""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness.common import (
    Tracer,
    Workload,
    median,
    nproc,
    percentile,
    process_peak_rss_mb,
    require,
)

#: (streams, households, trace events) per scale; the catalog and
#: population match ``commit`` so the two compare.
SIZES = {"full": (100, 100, 40_000), "tiny": (100, 20, 4_000)}
#: Snapshot periods per round: every round starts a fresh server and
#: sends this many ``snapshot_every`` periods of decisions, so each round
#: does the same work from the same state.  (A long-lived server
#: snapshots its whole idempotency cache, so its snapshots grow with its
#: age; a fixed-length round keeps that growth out of the spread.)
ROUND_SNAPSHOTS = {"full": 2, "tiny": 1}
RATE = 100.0
MEAN_DURATION = 0.5
POPULARITY = 0.8
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Server:
    """One ``python -m repro serve run`` process with default config."""

    def __init__(self, root: Path, instance_path: Path, src: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(root.parent / f"{root.name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run", "--dir", str(root),
             "--instance", str(instance_path)],
            stdout=subprocess.PIPE, stderr=self.log, env=env)
        self.root = root
        try:
            line = self._readline(READY_TIMEOUT_S)
            hello = json.loads(line)
            require(hello.get("serving") is True, f"server did not start: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.port = int(hello["port"])
        self.hello = hello

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        require(bool(ready), "server printed nothing before the timeout")
        return self.proc.stdout.readline().decode()

    def stop(self) -> "dict[str, object]":
        """SIGTERM (graceful: drain, final snapshot, close) and wait."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        finally:
            self.log.close()
        require(self.proc.returncode == 0, f"server exited {self.proc.returncode}")
        lines = [line for line in out.decode().splitlines() if line.strip()]
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.log.closed:
            self.log.close()


class _Connection:
    """One closed-loop client walking its own streams' part of the trace."""

    def __init__(self, client, codes, streams, count: int) -> None:
        self.client = client
        self.codes = iter(codes)
        self.streams = streams
        self.count = count
        self.active: "set[int]" = set()
        self.sessions: "dict[int, int]" = {}

    def next_op(self):
        """Next valid (op, k, key, position), simulator skip semantics."""
        from repro.serve.replay import offer_key, release_key

        for code in self.codes:
            code = int(code)
            if code < self.count:
                k = int(self.streams[code])
                if k not in self.active:
                    return "offer", k, offer_key(code), code
            else:
                position = code - self.count
                k = self.sessions.pop(position, None)
                if k is not None:
                    self.active.discard(k)
                    return "release", k, release_key(position), position
        return None

    def acked(self, op: str, k: int, position: int, response) -> None:
        if op == "offer" and response["admitted"]:
            self.sessions[position] = k
            self.active.add(k)


class Http(Workload):
    """Closed loop over ``nproc`` connections; op = acknowledged offer or release."""

    imports = ("repro.serve.client", "repro.sim", "repro.instances.workloads")

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        from repro.instances.workloads import iptv_neighborhood_workload
        from repro.serve import ServeConfig
        from repro.sim import ArrivalModel, draw_trace_arrays
        from repro.sim.engine import merged_replay_order

        streams, users, events = SIZES[scale]
        self.workdir = workdir
        self.instance = iptv_neighborhood_workload(
            num_channels=streams, num_households=users, seed=seed)
        self.instance_path = workdir / "http-instance.json"
        self.instance_path.write_text(self.instance.to_json())
        horizon = events / RATE
        trace = draw_trace_arrays(
            self.instance, ArrivalModel(RATE, MEAN_DURATION, POPULARITY), horizon, seed)
        codes = merged_replay_order(trace.times, trace.times + trace.durations, horizon)
        count = len(trace)
        connections = nproc()
        conn_of = trace.streams % connections
        self.parts = [codes[conn_of[codes % count] == c] for c in range(connections)]
        self.streams, self.count = trace.streams, count
        per_round = ROUND_SNAPSHOTS[scale] * ServeConfig().snapshot_every
        self.ops_per_conn = per_round // connections
        self.src = Path(__file__).resolve().parents[2] / "src"
        self.loop = asyncio.new_event_loop()
        self.rounds = 0
        self.server = self._spawn()
        self.conns: "list[_Connection]" = []
        self.acked = 0
        self.peak_rss = 0.0
        self.retries = 0
        self.shed = 0
        self.batch_sizes: "dict[str, int]" = {}

    def _spawn(self) -> Server:
        return Server(self.workdir / f"http-{self.rounds}", self.instance_path, self.src)

    def prepare_round(self) -> None:
        from repro.serve.client import ServeClient

        if self.server is None:
            self.server = self._spawn()
        self.conns = [
            _Connection(ServeClient("127.0.0.1", self.server.port), part,
                        self.streams, self.count)
            for part in self.parts
        ]

    async def _drive(self, conn: _Connection, latencies: list, tracer) -> int:
        from repro.exceptions import ReproError

        done = 0
        while done < self.ops_per_conn:
            step = conn.next_op()
            require(step is not None, "http trace too short for the round size")
            op, k, key, position = step
            self.attempted += 1
            span = tracer.begin("http.request", key) if tracer is not None else None
            start = time.perf_counter()
            try:
                call = conn.client.offer if op == "offer" else conn.client.release
                response = await call(k, key=key)
            except ReproError:
                self.failed += 1
                if span is not None:
                    tracer.end(span)
                continue
            latencies.append(time.perf_counter() - start)
            if span is not None:
                tracer.end(span)
            conn.acked(op, k, position, response)
            done += 1
        return done

    def run_round(self, tracer: "Tracer | None") -> "tuple[int, list[float]]":
        latencies: "list[float]" = []

        async def round_():
            # Concurrent tasks would interleave one span stack, so each
            # request span is a root of its own (rid = idempotency key).
            view = None if tracer is None else _FlatTracer(tracer)
            counts = await asyncio.gather(
                *(self._drive(c, latencies, view) for c in self.conns))
            return sum(counts)

        ops = self.loop.run_until_complete(round_())
        self.acked += ops
        self.round_acked = ops
        return ops, latencies

    def finish_round(self) -> None:
        """Stop the server; gates: all acked or failed, restore == WAL replay."""
        stats = self.loop.run_until_complete(self.conns[0].client.stats())
        self.shed += int(stats.get("shed", 0))
        self.peak_rss = max(self.peak_rss,
                            process_peak_rss_mb(self.server.proc.pid) or 0.0)
        self.retries += sum(c.client.retried for c in self.conns)
        self._close_clients()
        final = self.server.stop()
        for size, n in final.get("batch_sizes", {}).items():
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + n
        root = self.server.root
        self.server = None
        require(self.attempted == self.acked + self.failed,
                "an http request was neither acked nor counted as failed")
        self.records = check_restore_equals_wal_replay(root, self.round_acked)
        shutil.rmtree(root)
        self.rounds += 1

    def _close_clients(self) -> None:
        for conn in self.conns:
            self.loop.run_until_complete(conn.client.close())
        self.conns = []

    def close(self) -> None:
        if self.conns:
            self._close_clients()
        if self.server is not None:
            self.server.kill()
            self.server = None
        if not self.loop.is_closed():
            self.loop.close()

    def layer_metrics(self, tracer: Tracer, batch_of_one_p50_s: float) -> "dict[str, tuple[float, str]]":
        requests = tracer.durations("http.request")
        http_p50 = median(requests)
        batches = sum(self.batch_sizes.values())
        decisions = sum(int(size) * n for size, n in self.batch_sizes.items())
        return {
            "http.request_ms.p50": (http_p50 * 1e3, "ms"),
            "http.request_ms.p99": (percentile(requests, 99) * 1e3, "ms"),
            "http.envelope_ms": ((http_p50 - batch_of_one_p50_s) * 1e3, "ms"),
            "http.batch_size_mean": (decisions / batches, "count"),
            "http.retries": (self.retries, "count"),
            "http.shed": (self.shed, "count"),
        }


def check_restore_equals_wal_replay(root: Path, acked: int) -> "list[dict]":
    """Gate: the restored directory's digest equals a fresh replay of its WAL.

    Also checks the WAL holds exactly the ``acked`` decisions.  Returns
    the WAL records.
    """
    from repro.core.allocate import OnlineAllocator
    from repro.serve import AdmissionCore, read_wal
    from repro.serve.service import WAL_NAME
    from repro.serve.snapshot import read_root_manifest

    records, _ = read_wal(root / WAL_NAME)
    require(len(records) == acked,
            f"{acked} acked decisions but {len(records)} WAL records")
    restored = AdmissionCore.restore(root)
    try:
        digest = restored.state_digest()
        replayed = OnlineAllocator(restored.instance,
                                   mu=float(read_root_manifest(root)["mu"]))
    finally:
        restored.close()
    for record in records:
        if record["op"] == "offer":
            users = [int(u) for u in replayed.offer_indexed(int(record["k"]))]
            require(users == [int(u) for u in record["users"]],
                    f"WAL replay diverges at seq {record['seq']}")
        else:
            replayed.release_indexed(int(record["k"]))
    require(replayed.state_digest() == digest,
            "restored http digest differs from a replay of its WAL")
    return records


class _FlatTracer:
    """Tracer view whose spans never nest (each request is a root span)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def begin(self, name: str, rid=None) -> int:
        tracer = self.tracer
        tracer.spans.append([name, time.perf_counter_ns(), 0, -1, rid])
        return len(tracer.spans) - 1

    def end(self, index: int) -> None:
        self.tracer.spans[index][2] = time.perf_counter_ns()


#: WAL prefix re-executed in-process for the envelope baseline.
BATCH_OF_ONE_OPS = 4_000


def batch_of_one_p50_s(instance, records, workdir: Path, tracer: Tracer) -> float:
    """Re-execute a prefix of the server's WAL ops in-process, one ``execute_batch`` each.

    Returns the median call latency, and checks each decision equals the
    server's (the same ops from the same state give the same decisions).
    """
    from repro.serve import AdmissionCore

    core = AdmissionCore.create(instance, workdir / "http-inprocess")
    try:
        for record in records[:BATCH_OF_ONE_OPS]:
            span = tracer.begin("serve.batch_of_one", record.get("key"))
            (result,) = core.execute_batch(
                [(record["op"], int(record["k"]), record.get("key"))])
            tracer.end(span)
            require(isinstance(result, dict), f"in-process replay refused {record}")
            if record["op"] == "offer":
                require(result["user_index"] == [int(u) for u in record["users"]],
                        "in-process replay decided differently from the server")
        return median(tracer.durations("serve.batch_of_one"))
    finally:
        core.close()
