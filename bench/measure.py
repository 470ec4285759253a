"""The closed-loop driver and the end-to-end metric block.

Closed loop (Fig. 9: TPP waits for RSS's reply): a client sends its next
request only after the previous one completed, so a slower system is
offered less load.  Each workload states its client count.

Failure accounting: an exception, or a reply ``accept`` turns down
(degraded, wrong length, mis-ordered), is a *failed* operation — it is
counted against the attempts and contributes to no latency figure and
no throughput.

A run is cut into rounds of about a second.  Every figure is the
**quiet quartile over rounds** of the round's own value, as measured —
the lower quartile of a time, the upper quartile of the rate.  What the
machine adds (a neighbour on the core, a scheduler hiccup) only ever
adds time and comes in bursts of seconds, while a change to the program
moves every round; a statistic pooled over the whole run carries every
burst — a pooled p99 consists of little else.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .stats import cpu_seconds, peak_rss_mb

__all__ = ["ROUND_S", "LoopResult", "closed_loop", "timed", "per_round",
           "end_to_end_metrics", "well_formed"]

#: a run is cut into rounds of about this long
ROUND_S = 1.0


@dataclass
class LoopResult:
    """One entry per round: latencies (ms, successes only), successes a
    second, CPU seconds (harness + workers)."""

    latencies_ms: list[list[float]] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def _one_client(send, accept, requests, seconds: float, rounds: int,
                result: LoopResult, cpu_clock=None) -> None:
    """One closed-loop client.  With ``cpu_clock`` it is also the one
    that reads the CPU clock at round boundaries."""
    position = 0
    for _ in range(rounds):
        latencies: list[float] = []
        attempted = 0
        cpu_start = cpu_clock() if cpu_clock is not None else 0.0
        now = round_start = time.perf_counter()
        deadline = round_start + seconds / rounds
        while now < deadline:
            request = requests[position % len(requests)]
            position += 1
            attempted += 1
            sent = time.perf_counter()
            try:
                reply = send(request)
                now = time.perf_counter()
                ok = accept(request, reply)
            except Exception:
                now = time.perf_counter()
                ok = False
                if len(result.errors) < 5:
                    result.errors.append(traceback.format_exc(limit=3))
            if ok:
                latencies.append((now - sent) * 1000.0)
        result.latencies_ms.append(latencies)
        result.rates.append(len(latencies) / (now - round_start))
        if cpu_clock is not None:
            result.cpu_s.append(cpu_clock() - cpu_start)
        result.attempted += attempted
        result.failed += attempted - len(latencies)


def closed_loop(clients, seconds: float, rounds: int | None = None,
                worker_pids=()) -> LoopResult:
    """Drive every client for ``seconds``, split into ``rounds`` (by
    default, rounds of ``ROUND_S``).

    ``clients`` is a list of ``(send, accept, requests)``: ``send`` is
    timed, ``accept(request, reply)`` runs after the latency clock
    stopped, and the request list is cycled if the time outlasts it.
    One client runs on the calling thread; several run on a thread each,
    start together, and are merged round by round (latencies pooled,
    rates summed; CPU is read by the first client).
    """
    if rounds is None:
        rounds = max(1, round(seconds / ROUND_S))
    parts = [LoopResult() for _ in clients]

    def cpu_clock() -> float:
        return cpu_seconds(worker_pids)

    if len(clients) == 1:
        _one_client(*clients[0], seconds, rounds, parts[0], cpu_clock)
    else:
        threads = [
            threading.Thread(
                target=_one_client,
                args=(*client, seconds, rounds, part,
                      cpu_clock if index == 0 else None),
                name=f"bench-client-{index}",
            )
            for index, (client, part) in enumerate(zip(clients, parts))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    merged = LoopResult(cpu_s=parts[0].cpu_s)
    for part in parts:
        if len(part.rates) != rounds:
            raise RuntimeError("a client thread died mid-run")
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.errors += part.errors
    for index in range(rounds):
        merged.latencies_ms.append(
            [ms for part in parts for ms in part.latencies_ms[index]]
        )
        merged.rates.append(sum(part.rates[index] for part in parts))
    for error in merged.errors[:5]:
        print(error, file=sys.stderr)
    return merged


def timed(build):
    """Run ``build``; returns (what it built, seconds it took)."""
    start = time.perf_counter()
    built = build()
    return built, time.perf_counter() - start


def well_formed(scores, k: int) -> bool:
    """``k`` flights, best first."""
    return len(scores) == k and all(
        a >= b for a, b in zip(scores, scores[1:])
    )


def per_round(loop: LoopResult) -> dict[str, list[float]]:
    """Each round's own p50, p99, rate and CPU per operation.

    A round in which everything failed has no latency to report and is
    left out; it already counts, in full, against ``failed``.
    """
    rounds = [
        row for row in zip(loop.latencies_ms, loop.rates, loop.cpu_s)
        if row[0]
    ]
    if not rounds:
        raise RuntimeError(
            f"no operation succeeded ({loop.attempted} attempted)"
        )
    return {
        "latency_p50_ms":
            [float(np.percentile(ms, 50)) for ms, _, _ in rounds],
        "latency_p99_ms":
            [float(np.percentile(ms, 99)) for ms, _, _ in rounds],
        "throughput_ops_s": [rate for _, rate, _ in rounds],
        "cpu_ms_per_op": [cpu * 1000.0 / len(ms) for ms, _, cpu in rounds],
    }


def end_to_end_metrics(loop: LoopResult, setups_s, worker_pids=()) -> dict:
    """The six end-to-end metrics every workload reports: the quiet
    quartile over rounds of each of :func:`per_round`'s figures, the
    median of the run's set-ups, and the memory high-water mark."""
    quiet = {"latency_p50_ms": (25, "ms"), "latency_p99_ms": (25, "ms"),
             "throughput_ops_s": (75, "1/s"), "cpu_ms_per_op": (25, "ms")}
    return {
        "setup_s": (float(np.median(setups_s)), "s"),
        **{name: (float(np.percentile(values, quiet[name][0])),
                  quiet[name][1])
           for name, values in per_round(loop).items()},
        "peak_rss_mb": (peak_rss_mb(worker_pids), "MiB"),
    }
