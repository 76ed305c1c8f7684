"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces each public callable in :data:`TARGETS` with a
timing wrapper, at every name a consumer looks it up by: the defining
module, every loaded ``repro`` module that imported it by name, and, for
methods, the class.  Each call adds its elapsed time and one call to
its span name's running totals, held in memory.  Nothing inside
``src/`` is changed.

A target that no longer exists (a module or attribute deleted by a later
change) is recorded as absent: its metrics are reported as ``null``
instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One public callable to time.

    ``kind`` is ``function``, ``method`` or ``classmethod``; ``measure``
    names an extra quantity taken from the call (see :func:`_measure`).
    """

    span: str
    module: str
    attr: str
    kind: str = "function"
    measure: str | None = None


TARGETS = (
    Target("core.create_groups", "repro.core.condensation", "create_condensed_groups"),
    Target("core.generate", "repro.core.generation", "generate_anonymized_data",
           measure="result_rows"),
    Target("core.dynamic.add", "repro.core.dynamic", "DynamicGroupMaintainer.add", "method"),
    Target("core.dynamic.ingest_block", "repro.core.dynamic",
           "DynamicGroupMaintainer.ingest_block", "method"),
    Target("core.dynamic.split", "repro.core.dynamic", "split_group_statistics"),
    Target("linalg.eigh", "repro.linalg.symmetric", "sorted_eigh"),
    Target("linalg.eigen_update", "repro.linalg.updates", "absorbed_record_eigh_update"),
    Target("neighbors.pairwise", "repro.neighbors.brute", "pairwise_distances"),
    Target("neighbors.centroid_nearest", "repro.neighbors.centroids",
           "CentroidIndex.nearest", "method"),
    Target("parallel.partition", "repro.parallel.sharding", "principal_axis_shards"),
    Target("parallel.publish", "repro.parallel.shm", "publish_payload",
           measure="result_nbytes"),
    Target("parallel.condense_sharded", "repro.parallel.engine", "condense_sharded"),
    Target("durability.append", "repro.durability.wal", "WriteAheadLog.append", "method"),
    Target("durability.encode", "repro.durability.wal", "encode_entry",
           measure="result_len"),
    Target("durability.fsync", "os", "fsync"),
    Target("durability.checkpoint", "repro.durability.manager",
           "DurabilityManager.checkpoint", "method"),
    Target("durability.prune", "repro.durability.wal", "WriteAheadLog.prune", "method"),
    Target("durability.recover", "repro.core.condenser", "DynamicCondenser.recover",
           "classmethod"),
    Target("serve.request", "repro.serve.http", "AnonymizationRequestHandler.do_POST",
           "method", measure="endpoint"),
    Target("serve.request", "repro.serve.http", "AnonymizationRequestHandler.do_GET",
           "method", measure="endpoint"),
    Target("serve.ingest", "repro.serve.service", "ShardedCondensationService.ingest",
           "method", measure="arg_rows"),
    Target("serve.route", "repro.serve.router", "PrincipalAxisRouter.route", "method"),
    Target("serve.condense", "repro.core.condenser", "DynamicCondenser.partial_fit",
           "method"),
)


def _measure(how, args, result):
    """Extra quantity recorded with a span: ``(counter suffix, amount)``."""
    if how == "result_rows":
        return "records", int(getattr(result, "shape", (0,))[0])
    if how == "result_nbytes":
        return "bytes", int(getattr(result, "nbytes", 0))
    if how == "result_len":
        return "bytes", len(result)
    if how == "arg_rows":
        shape = getattr(args[1], "shape", ())
        return "records", int(shape[0]) if len(shape) == 2 else 1
    return None


class Tracer:
    """In-memory per-span totals with call-site wrappers."""

    def __init__(self):
        self.sums: dict[str, list] = {}
        self.amounts: dict[str, float] = {}
        self.absent: set[str] = set()
        # Re-entrant: the launcher's SIGUSR1 handler calls totals() on the
        # main thread, possibly while that thread is inside a wrapper.
        self._lock = threading.RLock()

    # -- recording -----------------------------------------------------

    def _wrap(self, target: Target, original):
        tracer = self

        def traced(*args, **kwargs):
            name = target.span
            if target.measure == "endpoint":
                path = getattr(args[0], "path", "") or ""
                name = f"{name}.{path.split('?', 1)[0].strip('/') or 'root'}"
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with tracer._lock:
                    entry = tracer.sums.setdefault(name, [0.0, 0])
                    entry[0] += elapsed
                    entry[1] += 1
            if target.measure and target.measure != "endpoint":
                measured = _measure(target.measure, args, result)
                if measured is not None:
                    key = f"{name}.{measured[0]}"
                    with tracer._lock:
                        tracer.amounts[key] = tracer.amounts.get(key, 0) + measured[1]
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; remember the absent ones."""
        # The CLI imports every layer, so each module that bound a target
        # by name is loaded before the scan in _replace_everywhere.
        importlib.import_module("repro.cli")
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.add(target.span)
                continue
            owner = module
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf) if path else getattr(owner, leaf, None)
            if raw is None:
                self.absent.add(target.span)
            elif target.kind == "function":
                self._replace_everywhere(module, leaf, raw, self._wrap(target, raw))
            elif target.kind == "classmethod":
                setattr(owner, leaf, classmethod(self._wrap(target, raw.__func__)))
            else:
                setattr(owner, leaf, self._wrap(target, raw))

    @staticmethod
    def _replace_everywhere(module, leaf, original, wrapper) -> None:
        setattr(module, leaf, wrapper)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)

    # -- output --------------------------------------------------------

    def totals(self) -> dict:
        """``{span name: [seconds, calls]}`` plus measured amounts."""
        with self._lock:
            return {"spans": {name: list(entry) for name, entry in self.sums.items()},
                    "amounts": dict(self.amounts), "absent": sorted(self.absent)}

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write :meth:`totals` (plus ``extra``) atomically to ``path``."""
        document = self.totals()
        document.update(extra or {})
        partial = f"{path}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(partial, path)


def merge_totals(documents) -> dict:
    """Sum several :meth:`Tracer.totals` documents (e.g. two servers)."""
    merged = {"spans": {}, "amounts": {}, "absent": set(), "cpu_s": 0.0}
    for document in documents:
        for name, (seconds, calls) in document["spans"].items():
            entry = merged["spans"].setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        for key, amount in document["amounts"].items():
            merged["amounts"][key] = merged["amounts"].get(key, 0) + amount
        merged["absent"].update(document["absent"])
        merged["cpu_s"] += document.get("cpu_s", 0.0)
    return merged
