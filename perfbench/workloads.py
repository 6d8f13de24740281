"""The three workloads: seeded schedules, end-to-end metrics, checks.

Each workload exists to stress layers the others do not (README.md has
the full reasoning):

* ``serial_topk``   one caller, closed loop, single-process service with
                    ``serve`` defaults. Pays every fixed per-request cost
                    with no coalescing; repeats exercise the result cache.
* ``sharded_mixed`` two callers, open loop, 2-shard durable IVF tier.
                    Mixed-length queries make the batcher coalesce and pad;
                    fsynced writes interleave with reads; no result cache.
* ``ingest_stream`` fault-injected fleet replay into the streaming tier,
                    open loop, while a second connection polls freshness.

Every workload reports the same end-to-end metric names so one
``BENCHMARK.json`` covers all three; what "primary" and "secondary" mean
per workload is in :data:`PRIMARY` / :data:`SECONDARY` and README.md.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, List, Optional

import numpy as np

import inputs
import loadgen
from loadgen import Outcome, Request

K = 10
#: Share of queries that repeat an earlier query, and how many fresh
#: queries back the repeated one was sent (at most; fewer at the start).
REPEAT_SHARE = 0.25
RECENT = 16
#: Open-loop arrival rate of ``sharded_mixed`` (requests/s, both
#: connections together): about half the ~31 requests/s two keep-alive
#: connections reach against the commit that introduced this benchmark.
SHARDED_RATE = 16.0
#: One ``sharded_mixed`` request in this many is a write. One in five
#: (not one in ten) leaves enough writes in a run for a write tail.
WRITE_EVERY = 5
#: ``ingest_stream`` offered load (points/s) and batch size. The prefix
#: fold alone re-embeds ~5k points/s (~180-220 us a point) on the commit
#: that introduced this benchmark, but it shares one interpreter lock with
#: the HTTP threads; at 2000 points/s one batch's re-embed often ran into
#: the next batch's arrival and freshness turned bimodal from run to run.
INGEST_RATE = 1200.0
INGEST_BATCH = 256
INGEST_SOURCES = 64
#: How long to keep polling after the last ack for it to show fresh.
FRESH_WAIT_S = 5.0

#: What ``p50_ms``/``tail_ms``/``throughput_per_s`` measure per workload.
PRIMARY = {"serial_topk": "topk", "sharded_mixed": "topk",
           "ingest_stream": "ingest_ack"}
#: What ``secondary_p50_ms``/``secondary_tail_ms`` measure per workload.
SECONDARY = {"serial_topk": "topk_repeat", "sharded_mixed": "write",
             "ingest_stream": "fresh"}


def metric(value: float, unit: str, count: int = 0,
           pct: Optional[float] = None) -> dict:
    out = {"value": float(value), "unit": unit, "count": int(count)}
    if pct is not None:
        out["pct"] = pct
    return out


def latency_metrics(prefix: str, values: List[float], tail_pct: float,
                    ceiling_s: float) -> Dict[str, dict]:
    """``<prefix>p50_ms`` and ``<prefix>tail_ms`` of seconds ``values``.

    ``tail_pct`` is fixed per workload (see ``Workload.tail_pct``) so a
    run with a few more or fewer samples reports the same percentile. A
    failed request is ``inf`` (it misses every limit); a percentile that
    lands on one reports ``ceiling_s`` (the run's length) instead, so the
    figure stays a finite, comparable number.
    """
    def ms(value: float) -> float:
        return (ceiling_s if math.isinf(value) else value) * 1e3

    count = len(values)
    return {f"{prefix}p50_ms": metric(ms(loadgen.percentile(values, 50)),
                                      "ms", count, 50.0),
            f"{prefix}tail_ms": metric(
                ms(loadgen.percentile(values, tail_pct)), "ms", count,
                tail_pct)}


def _points(trajectory) -> list:
    return np.asarray(trajectory.points).tolist()


def _resample(trajectory, length: int) -> list:
    from repro.datasets.synthesis import interpolate_path

    return interpolate_path(np.asarray(trajectory.points), length).tolist()


def _with_repeats(fresh: List[list], count: int,
                  rng: np.random.Generator) -> List[tuple]:
    """``count`` ``(points, repeat)`` picks: fresh in order, or a repeat.

    Exactly one pick in every ``1 / REPEAT_SHARE`` is a repeat, at a
    seeded position, of the fresh query sent ``RECENT`` fresh queries
    earlier: the repeat share and the repeats' lengths are the same for
    every seed.
    """
    block = round(1 / REPEAT_SHARE)
    recent: List[list] = []
    out, cursor, slot = [], 0, 0
    for index in range(count):
        if index % block == 0:
            slot = int(rng.integers(block))
        if recent and index % block == slot:
            out.append((recent[0], True))
            continue
        points = fresh[cursor % len(fresh)]
        cursor += 1
        recent = (recent + [points])[-RECENT:]
        out.append((points, False))
    return out


def _stratified(trajectories: List, quantile: Callable[[np.ndarray],
                                                       np.ndarray],
                stratum: int, rng: np.random.Generator) -> List[list]:
    """Resample trajectories to lengths taken stratum by stratum.

    Every ``stratum`` consecutive trajectories get one length from each of
    ``stratum`` equal-probability slices of the distribution (its midpoint
    quantile), in seeded order. Every seed thus sends the same mix of
    lengths, and run-to-run differences come from the system, not from
    one seed drawing longer queries than another.
    """
    levels = np.concatenate([
        (rng.permutation(size) + 0.5) / size
        for size in (min(stratum, len(trajectories) - start)
                     for start in range(0, len(trajectories), stratum))])
    lengths = np.rint(quantile(levels)).astype(int)
    return [_resample(t, int(n)) for t, n in zip(trajectories, lengths)]


@dataclass
class Run:
    """What one measured phase produced (client side)."""

    outcomes: List[Outcome]
    elapsed: float
    polls: List[Outcome] = field(default_factory=list)


class Workload:
    name = ""
    connections = 1
    #: Tail percentiles of the primary and secondary timings: the highest
    #: with at least ten samples beyond it (``loadgen.tail_percentile``)
    #: at the sample counts a 15 s run gives on the commit that added this
    #: benchmark, then fixed.
    tail_pct = (90.0, 90.0)
    #: Whether :meth:`check` queries the server (else it reads what the
    #: server wrote on exit).
    checks_live_server = True

    def schedule(self, seed: int, seconds: float) -> List[Request]:
        raise NotImplementedError

    def drive(self, host: str, port: int, seed: int,
              seconds: float) -> Run:
        raise NotImplementedError

    def end_to_end(self, run: Run) -> Dict[str, dict]:
        raise NotImplementedError

    def check(self, run: Run, host: str, port: int, build_dir,
              server_result: dict) -> Dict[str, object]:
        raise NotImplementedError

    def primary(self, run: Run) -> List[Outcome]:
        return [o for o in run.outcomes if o.request.tag.startswith("topk")]


# ----------------------------------------------------------------- serial

class SerialTopK(Workload):
    name = "serial_topk"
    tail_pct = (95.0, 85.0)     # ~300 answers, ~75 of them repeats
    #: Fresh queries in the pool; a faster server cycles through it.
    POOL = 4000
    #: Answers compared id-for-id against the offline exact store.
    SAMPLED = 100

    def schedule(self, seed, seconds):
        rng = np.random.default_rng([seed, 1])
        fresh = _stratified(inputs.porto(self.POOL, seed + 1),
                            lambda q: 10 + 50 * q, 20, rng)
        return [Request(0.0, "POST", "/v1/topk",
                        {"trajectory": points, "k": K},
                        tag="topk-repeat" if repeat else "topk")
                for points, repeat in _with_repeats(fresh, 4 * self.POOL,
                                                    rng)]

    def drive(self, host, port, seed, seconds):
        outcomes, elapsed = loadgen.closed_loop(
            host, port, self.schedule(seed, seconds), seconds)
        return Run(outcomes, elapsed)

    def end_to_end(self, run):
        ceiling = run.elapsed
        out = latency_metrics("", [o.latency_from_due for o in run.outcomes],
                              self.tail_pct[0], ceiling)
        ok = sum(o.ok for o in run.outcomes)
        out["throughput_per_s"] = metric(ok / run.elapsed, "1/s", ok)
        out.update(latency_metrics(
            "secondary_", [o.latency_from_due for o in run.outcomes
                           if o.request.tag == "topk-repeat"],
            self.tail_pct[1], ceiling))
        return out

    def check(self, run, host, port, build_dir, server_result):
        from repro.datasets.trajectory import Trajectory
        from repro.serving import load_bundle

        store = load_bundle(build_dir / "bundle").store
        fresh = [o for o in run.outcomes
                 if o.ok and o.request.tag == "topk"][:self.SAMPLED]
        overlap = identical = 0
        for outcome in fresh:
            ids, _ = store.query(
                Trajectory(outcome.request.body["trajectory"]), K)
            served = outcome.payload["ids"]
            identical += served == [int(i) for i in ids]
            overlap += len(set(served) & {int(i) for i in ids})
        repeats = [o for o in run.outcomes
                   if o.ok and o.request.tag == "topk-repeat"]
        return {
            "sampled": len(fresh),
            "id_identical": identical == len(fresh) and len(fresh) > 0,
            "recall_at_10": overlap / (K * len(fresh)) if fresh else 0.0,
            "repeats_cached": all(o.payload.get("cached") for o in repeats),
        }


# ---------------------------------------------------------------- sharded

class ShardedMixed(Workload):
    name = "sharded_mixed"
    connections = 2
    tail_pct = (90.0, 75.0)     # 192 queries, 48 writes
    #: Lengths are lognormal around 30 points, clipped to [10, 400].
    LENGTH_MEDIAN, LENGTH_SIGMA, LENGTH_RANGE = 30.0, 0.9, (10, 400)
    #: Fresh queries re-sent after the run to measure recall.
    RECALL_PROBES = 30
    #: A delete targets an insert at least this many requests earlier,
    #: whose answer has (at the schedule's rate) long since arrived.
    DELETE_LAG = 20

    def schedule(self, seed, seconds):
        rng = np.random.default_rng([seed, 2])
        total = int(SHARDED_RATE * seconds) + 1
        # One stratum spans the fresh queries a run sends, so every run
        # sends the whole length distribution, its heavy tail included.
        sent_fresh = int(total * (1 - 1 / WRITE_EVERY) * (1 - REPEAT_SHARE))
        normal = NormalDist()
        fresh = _stratified(
            inputs.porto(2000, seed + 2), lambda q: np.clip(
                self.LENGTH_MEDIAN * np.exp(self.LENGTH_SIGMA * np.array(
                    [normal.inv_cdf(x) for x in q])), *self.LENGTH_RANGE),
            sent_fresh, rng)
        queries = iter(_with_repeats(fresh, total, rng))
        pool, pool_cursor = inputs.porto(total, seed + 3), 0
        schedule: List[Request] = []
        live_inserts: List[int] = []
        writes = inserted = 0
        for index in range(total):
            due = index / SHARDED_RATE
            # One write per WRITE_EVERY requests, at a seeded position.
            if index % WRITE_EVERY == 0:
                slot = int(rng.integers(WRITE_EVERY))
            if index % WRITE_EVERY != slot:
                points, repeat = next(queries)
                schedule.append(Request(
                    due, "POST", "/v1/topk", {"trajectory": points, "k": K},
                    tag="topk-repeat" if repeat else "topk"))
                continue
            # Writes cycle insert, insert, delete, insert, delete (a
            # delete needs an old enough insert); inserts cycle 1-4 rows.
            writes += 1
            ready = [i for i in live_inserts if i <= index - self.DELETE_LAG]
            if ready and writes % 5 in (3, 0):
                target = ready[int(rng.integers(len(ready)))]
                live_inserts.remove(target)
                schedule.append(Request(due, "POST", "/v1/delete",
                                        {"ids": []}, tag="delete",
                                        meta={"target": target}))
                continue
            inserted += 1
            count = 1 + inserted % 4
            trajectories = [_points(t) for t in
                            pool[pool_cursor:pool_cursor + count]]
            pool_cursor += count
            live_inserts.append(index)
            schedule.append(Request(due, "POST", "/v1/insert",
                                    {"trajectories": trajectories},
                                    tag="insert", meta={"index": index}))
        return schedule

    def drive(self, host, port, seed, seconds):
        schedule = self.schedule(seed, seconds)
        acked: Dict[int, Optional[list]] = {}
        arrived = {r.meta["index"]: threading.Event()
                   for r in schedule if r.tag == "insert"}

        def prepare(request: Request) -> Request:
            if request.tag != "delete":
                return request
            target = request.meta["target"]
            arrived[target].wait(timeout=30.0)
            ids = acked.get(target) or []
            return Request(request.due, "POST", "/v1/delete", {"ids": ids},
                           tag="delete", meta=dict(request.meta, ids=ids))

        def observe(outcome: Outcome) -> None:
            if outcome.request.tag == "insert":
                index = outcome.request.meta["index"]
                acked[index] = outcome.payload["ids"] if outcome.ok else None
                arrived[index].set()

        outcomes, elapsed = loadgen.open_loop(
            host, port, schedule, seconds, self.connections,
            prepare=prepare, observe=observe)
        return Run(outcomes, elapsed)

    def end_to_end(self, run):
        ceiling = run.elapsed
        topk = self.primary(run)
        out = latency_metrics("", [o.latency_from_due for o in topk],
                              self.tail_pct[0], ceiling)
        ok = sum(o.ok for o in topk)
        out["throughput_per_s"] = metric(ok / run.elapsed, "1/s", ok)
        out.update(latency_metrics(
            "secondary_", [o.latency_from_due for o in run.outcomes
                           if o.request.tag in ("insert", "delete")],
            self.tail_pct[1], ceiling))
        return out

    def check(self, run, host, port, build_dir, server_result):
        from repro.core.partition import load_partition
        from repro.datasets.trajectory import Trajectory
        from repro.serving import load_bundle_model

        model, _ = load_bundle_model(build_dir / "bundle")
        live: Dict[int, list] = {}      # acked inserts not deleted since
        for o in run.outcomes:
            if o.ok and o.request.tag == "insert":
                live.update(zip(o.payload["ids"],
                                o.request.body["trajectories"]))
        removed = {traj_id: live.pop(traj_id)
                   for o in run.outcomes
                   if o.ok and o.request.tag == "delete"
                   for traj_id in o.request.meta["ids"]}
        probes = [o.request.body["trajectory"] for o in run.outcomes
                  if o.request.tag == "topk"][:self.RECALL_PROBES]
        checks = ([("present", i, p) for i, p in live.items()]
                  + [("gone", i, p) for i, p in removed.items()]
                  + [("probe", n, p) for n, p in enumerate(probes)])
        answers, _ = loadgen.open_loop(
            host, port, [Request(0.0, "POST", "/v1/topk",
                                 {"trajectory": p, "k": K}, tag=kind,
                                 meta={"id": i})
                         for kind, i, p in checks], math.inf,
            self.connections)
        present = all(a.ok and a.request.meta["id"] in a.payload["ids"]
                      for a in answers if a.request.tag == "present")
        gone = all(a.ok and a.request.meta["id"] not in a.payload["ids"]
                   for a in answers if a.request.tag == "gone")

        # Exact scan of the final table: partitions + acked inserts.
        ids, rows = [], []
        for shard in range(inputs.SIZES[self.name]["shards"]):
            part = load_partition(build_dir / "partitions", shard,
                                  model=None)
            ids.extend(part.ids)
            rows.append(part.embeddings)
        if live:
            ids.extend(live)
            rows.append(model.embed([Trajectory(p) for p in live.values()]))
        ids_arr, table = np.asarray(ids), np.vstack(rows)
        probe_answers = [a for a in answers if a.request.tag == "probe"]
        embedded = model.embed([Trajectory(a.request.body["trajectory"])
                                for a in probe_answers])
        overlap = 0
        for answer, query in zip(probe_answers, embedded):
            dist = np.linalg.norm(table - query, axis=1)
            exact = ids_arr[np.lexsort((ids_arr, dist))[:K]]
            overlap += len(set(answer.payload["ids"]) & set(exact.tolist()))
        stats = loadgen.fetch(port, "/v1/stats", host)
        return {
            "inserts_present": present, "deletes_gone": gone,
            "acked_inserts": len(live) + len(removed),
            "acked_deletes": len(removed),
            "size_matches": stats["store"]["size"] == len(ids_arr),
            "recall_at_10": overlap / (K * max(1, len(probe_answers))),
        }


# ----------------------------------------------------------------- ingest

class IngestStream(Workload):
    name = "ingest_stream"
    checks_live_server = False
    tail_pct = (85.0, 85.0)     # 71 batches
    #: Sources emit about as many points as the run sends, so the
    #: replay's late points (parked near its end) arrive within the run.
    SOURCE_SPREAD = 0.1
    REPLAY = {"dt_s": 1.0, "start_spread_s": 60.0, "drop_fraction": 0.02,
              "duplicate_fraction": 0.05, "reorder_fraction": 0.10,
              "late_fraction": 0.01}

    def schedule(self, seed, seconds):
        from repro.datasets.porto import StreamReplayConfig, replay_stream
        from repro.datasets.trajectory import TrajectoryDataset

        per_source = INGEST_RATE * seconds / INGEST_SOURCES
        fleet = inputs.porto(INGEST_SOURCES, seed + 4,
                             int(per_source * (1 - self.SOURCE_SPREAD)),
                             int(per_source * (1 + self.SOURCE_SPREAD)))
        arrivals, _ = replay_stream(TrajectoryDataset(fleet),
                                    StreamReplayConfig(**self.REPLAY),
                                    seed=seed)
        rows = [[p.source_id, p.seq, p.t, p.x, p.y] for p in arrivals]
        return [Request(start / INGEST_RATE, "POST", "/v1/ingest",
                        {"points": rows[start:start + INGEST_BATCH]},
                        tag="ingest")
                for start in range(0, len(rows) - INGEST_BATCH + 1,
                                   INGEST_BATCH)]

    def drive(self, host, port, seed, seconds):
        schedule = self.schedule(seed, seconds)
        stop = threading.Event()
        polls: List[Outcome] = []
        poller = threading.Thread(
            target=loadgen.poll_loop,
            args=(host, port, "/v1/stream", stop, polls), name="loadgen-poll")
        poller.start()
        try:
            outcomes, elapsed = loadgen.open_loop(host, port, schedule,
                                                  seconds, 1)
            # Keep polling until the last batch shows re-embedded.
            last = max((o.done for o in outcomes), default=0.0)
            while time.monotonic() < last + FRESH_WAIT_S and not any(
                    p.sent >= last and _clean(p) for p in list(polls)):
                time.sleep(0.05)
        finally:
            stop.set()
            poller.join()
        return Run(outcomes, elapsed, polls=polls)

    def primary(self, run):
        return run.outcomes

    def freshness(self, run: Run) -> List[float]:
        """Per batch: due time until a poll sent after its ack is clean."""
        clean = [p for p in run.polls if _clean(p)]
        out = []
        cursor = 0
        for o in run.outcomes:
            if not o.ok:
                out.append(math.inf)
                continue
            while cursor < len(clean) and clean[cursor].sent < o.done:
                cursor += 1
            out.append(clean[cursor].done - o.due if cursor < len(clean)
                       else math.inf)
        return out

    def end_to_end(self, run):
        ceiling = run.elapsed
        out = latency_metrics("", [o.latency_from_due for o in run.outcomes],
                              self.tail_pct[0], ceiling)
        points = sum(len(o.request.body["points"]) for o in run.outcomes
                     if o.ok)
        out["throughput_per_s"] = metric(points / run.elapsed, "1/s",
                                         points)
        out.update(latency_metrics("secondary_", self.freshness(run),
                                   self.tail_pct[1], ceiling))
        return out

    def check(self, run, host, port, build_dir, server_result):
        accepted = sum(o.payload["accepted"] for o in run.outcomes if o.ok)
        final = next((p for p in reversed(run.polls) if p.ok), None)
        window = final.payload["window"] if final else {}
        stream = server_result.get("stream", {})
        return {
            "accepted": accepted,
            "counters_add_up": (window.get("applied", -1)
                                + window.get("buffered", 0)) == accepted,
            "bit_identical": bool(stream.get("bit_identical")),
            "live_segments": stream.get("segments", 0),
            "evicted_segments": window.get("segments_evicted", 0),
        }


def _clean(poll: Outcome) -> bool:
    """Whether a ``/v1/stream`` poll shows nothing dirty or in flight."""
    return (poll.ok and poll.payload["dirty_segments"] == 0
            and poll.payload["inflight_encodes"] == 0)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SerialTopK(), ShardedMixed(), IngestStream())}

#: Checks whose value must be True for a run to count as correct.
REQUIRED: Dict[str, Callable[[dict], bool]] = {
    "serial_topk": lambda c: (c["id_identical"] and c["repeats_cached"]
                              and c["recall_at_10"] == 1.0),
    "sharded_mixed": lambda c: (c["inserts_present"] and c["deletes_gone"]
                                and c["size_matches"]),
    "ingest_stream": lambda c: c["counters_add_up"] and c["bit_identical"],
}
