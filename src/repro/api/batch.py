"""BatchRunner: execute many :class:`RunSpec`s, optionally in parallel.

Table sweeps, benchmarks and services all reduce to "run this list of specs
and collect the results".  ``BatchRunner`` does exactly that with three
guarantees:

* *deterministic ordering*: ``results[i]`` always corresponds to
  ``specs[i]``, regardless of worker scheduling;
* *per-run error capture*: a failing run yields a ``RunResult`` with
  ``error`` set instead of aborting the batch;
* *bit-identical results*: routing is deterministic, so a parallel batch
  returns exactly the numbers the serial path returns.

Workers are OS processes (``ProcessPoolExecutor``) because routing is
CPU-bound Python; ``workers <= 1`` runs serially in-process, which is also the
automatic fallback, with a ``RuntimeWarning``, when a pool cannot be started
(e.g. sandboxed environments) or a worker dies.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro.api import registry
from repro.api.runner import run_safe
from repro.api.spec import RunResult, RunSpec

__all__ = ["BatchRunner", "run_batch"]


def _picklable_registrations():
    """Registry entries that can be shipped to worker processes.

    Under the ``spawn`` start method workers re-import ``repro`` but not the
    caller's modules, so routers registered at runtime would be missing there.
    Factories that pickle (module-level callables) are re-registered by the
    pool initializer; ones that do not (lambdas defined in __main__) are
    skipped -- their runs fail per-spec with 'unknown router', not a crash.
    """
    entries = []
    for entry in registry._REGISTRY.values():
        try:
            pickle.dumps(entry.factory)
        except Exception:  # noqa: BLE001 - unpicklable factories are skipped
            continue
        entries.append((entry.name, entry.factory, entry.description))
    return entries


def _init_worker(entries) -> None:
    """Process-pool initializer: mirror the parent's router registry."""
    for name, factory, description in entries:
        registry.register_router(name, factory, description=description, overwrite=True)


class BatchRunner:
    """Executes lists of :class:`RunSpec` with a configurable worker pool.

    Args:
        workers: number of worker processes.  ``None`` picks
            ``min(os.cpu_count(), len(specs))``; ``0`` or ``1`` forces serial
            in-process execution.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[Callable[[int, RunResult], None]] = None,
    ) -> List[RunResult]:
        """Execute every spec and return results in spec order.

        Args:
            on_result: optional progress callback invoked once per spec, in
                *completion* order, with ``(index, result)`` where ``index``
                is the spec's position in ``specs``.  The returned list stays
                in spec order regardless.  This is what lets a server stream
                batch progress as each run finishes.  The callback runs in the
                submitting thread (never in a worker process).
        """
        specs = list(specs)
        if not specs:
            return []
        workers = self._effective_workers(len(specs))
        if workers <= 1:
            results_serial: List[RunResult] = []
            for index, spec in enumerate(specs):
                result = run_safe(spec)
                results_serial.append(result)
                if on_result is not None:
                    on_result(index, result)
            return results_serial
        # Indexed collection keeps results[i] <-> specs[i] deterministic
        # regardless of completion order, and lets the fallback below re-run
        # only what the pool did not finish.
        results: List[Optional[RunResult]] = [None] * len(specs)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(_picklable_registrations(),),
            ) as pool:
                futures = {
                    pool.submit(run_safe, spec): index
                    for index, spec in enumerate(specs)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index])
        except (OSError, BrokenProcessPool) as exc:
            # No process pool available (restricted environment), or a worker
            # died mid-batch (OOM kill, native crash).  Completed results are
            # kept; only the unfinished specs run serially, preserving the
            # per-run error-capture guarantee.
            unfinished = sum(result is None for result in results)
            warnings.warn(
                "BatchRunner: the process pool failed (%s: %s); %d of %d specs "
                "re-run in-process" % (type(exc).__name__, exc, unfinished, len(specs)),
                RuntimeWarning,
                stacklevel=2,
            )
        for index, spec in enumerate(specs):
            if results[index] is None:
                results[index] = run_safe(spec)
                if on_result is not None:
                    on_result(index, results[index])
        return results

    def _effective_workers(self, num_specs: int) -> int:
        if self.workers is not None:
            return self.workers
        return min(os.cpu_count() or 1, num_specs)


def run_batch(specs: Sequence[RunSpec], workers: Optional[int] = None) -> List[RunResult]:
    """Convenience wrapper: ``BatchRunner(workers).run(specs)``."""
    return BatchRunner(workers=workers).run(specs)
