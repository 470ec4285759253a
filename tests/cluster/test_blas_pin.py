"""Workers pin their own BLAS pool to one thread.

Two worker processes each running a multi-threaded OpenBLAS on a 2-CPU
host stall each other; ``OPENBLAS_NUM_THREADS`` only helps whoever
remembers to export it.  ``worker_main`` therefore pins the library
numpy has already loaded, whatever the start method.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os

import pytest

from repro.cluster import worker
from repro.cluster.config import ClusterConfig

_GETTER = "scipy_openblas_get_num_threads64_"


def _openblas():
    with open("/proc/self/maps") as maps:
        path = next(
            (line.split()[-1] for line in maps if "openblas" in line), None
        )
    library = path and ctypes.CDLL(path)
    return library if library and hasattr(library, _GETTER) else None


def _report(queue):
    import numpy  # noqa: F401 - loads OpenBLAS, as building a replica does

    library = _openblas()
    library.scipy_openblas_set_num_threads64_(2)  # whatever it started at
    before = getattr(library, _GETTER)()
    pinned = worker._pin_blas_threads()
    queue.put((before, pinned, getattr(library, _GETTER)()))


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps") or _openblas() is None,
    reason="numpy's OpenBLAS does not export " + _GETTER,
)
@pytest.mark.parametrize("method", ["spawn", "fork"])
def test_worker_process_reports_one_thread(method):
    context = multiprocessing.get_context(method)
    queue = context.Queue()
    process = context.Process(target=_report, args=(queue,))
    process.start()
    before, pinned, after = queue.get(timeout=60)
    process.join(timeout=10)
    assert pinned and after == 1, (before, pinned, after)


def test_missing_library_is_counted_not_fatal(monkeypatch):
    """No OpenBLAS in the maps (another BLAS, another OS): the worker
    counts ``cluster.blas_pin_missing`` and serves anyway."""
    import builtins
    import io
    import queue as queue_module

    real_open = builtins.open
    monkeypatch.setattr(
        builtins, "open",
        lambda path, *a, **k: io.StringIO("") if path == "/proc/self/maps"
        else real_open(path, *a, **k),
    )
    assert worker._pin_blas_threads() is False
    monkeypatch.undo()

    seen = {}

    class _Runtime:
        def __init__(self, config, worker_id):
            from repro.obs.registry import MetricsRegistry

            self.registry = seen["registry"] = MetricsRegistry()

        def routes(self, holder):
            raise RuntimeError("stop here")

    monkeypatch.setattr(worker, "_pin_blas_threads", lambda: False)
    monkeypatch.setattr(worker, "WorkerRuntime", _Runtime)
    ready = queue_module.Queue()
    from repro.obs.registry import get_registry, set_registry

    previous = get_registry()
    try:
        worker.worker_main(ClusterConfig(), 0, ready)
    finally:
        set_registry(previous)
    assert "stop here" in ready.get_nowait()["error"]
    assert seen["registry"].counter("cluster.blas_pin_missing").value == 1
