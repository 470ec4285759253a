"""Small statistics and process-accounting helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import time

__all__ = [
    "quartile_spread",
    "cpu_seconds",
    "peak_rss_mb",
]


def quartile_spread(values) -> dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median of one metric's runs.

    The quartiles are ``statistics.quantiles(values, n=4)`` — the same
    rule the driver applies when it accepts or rejects the benchmark.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_cpu_seconds(pid: int) -> float:
    # Fields 14/15 of /proc/<pid>/stat are utime/stime in clock ticks;
    # the command name (field 2) may contain spaces, so split after it.
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds(worker_pids=()) -> float:
    """User+sys CPU consumed so far by this process and live workers."""
    return time.process_time() + sum(
        _proc_cpu_seconds(pid) for pid in worker_pids
    )


def _proc_peak_rss_kb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def peak_rss_mb(worker_pids=()) -> float:
    """High-water RSS of this process plus each live worker, in MiB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_proc_peak_rss_kb(pid) for pid in worker_pids)) / 1024.0
