"""Inputs, statistics and output checks shared by every workload.

Everything here is the benchmark's own code: the inputs are generated
from the seed with numpy alone, and the quality numbers (information
loss, covariance compatibility, model digest) are computed from the
group statistics ``(Fs, Sc, n)`` the program returns, so a change to the
program's own metric helpers cannot move them.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Relative tolerance of the first-moment conservation check.
MOMENT_RTOL = 1e-9
#: Gaussian blobs in every workload's input.
CENTERS = 12


def load_workloads() -> dict:
    """Workload parameters, keyed by workload name."""
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def correlated_blobs(seed: int, n: int, d: int, centers: int = CENTERS) -> np.ndarray:
    """``n`` records in ``d`` dimensions drawn from ``centers`` Gaussians.

    Each blob has its own mean and a full random covariance ``A Aᵀ``, so
    attributes are correlated within a blob and the data has the local
    structure condensation is meant to preserve.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, centers, size=n)
    data = np.empty((n, d))
    for blob in range(centers):
        members = labels == blob
        mixing = rng.normal(size=(d, d)) / math.sqrt(d)
        mean = rng.normal(scale=4.0, size=d)
        data[members] = rng.normal(size=(int(members.sum()), d)) @ mixing.T + mean
    return data


# ----------------------------------------------------------------------
# Statistics of the released model, from (Fs, Sc, n) alone
# ----------------------------------------------------------------------

def group_arrays(groups):
    """Counts, first-order sums and second-order sums as stacked arrays.

    ``groups`` is a sequence of objects with ``count``, ``first_order``
    and ``second_order`` attributes, or of the equivalent dicts found in
    the ``/model`` document.
    """
    counts, firsts, seconds = [], [], []
    for group in groups:
        if isinstance(group, dict):
            counts.append(group["count"])
            firsts.append(group["first_order"])
            seconds.append(group["second_order"])
        else:
            counts.append(group.count)
            firsts.append(group.first_order)
            seconds.append(group.second_order)
    return (np.asarray(counts, dtype=np.int64),
            np.asarray(firsts, dtype=float),
            np.asarray(seconds, dtype=float))


def model_digest(groups) -> str:
    """SHA-256 over every group's ``(n, Fs, Sc)`` in model order."""
    counts, firsts, seconds = group_arrays(groups)
    digest = hashlib.sha256()
    for count, first, second in zip(counts, firsts, seconds):
        digest.update(int(count).to_bytes(8, "little"))
        digest.update(np.ascontiguousarray(first).tobytes())
        digest.update(np.ascontiguousarray(second).tobytes())
    return digest.hexdigest()


def information_loss(data: np.ndarray, groups) -> float:
    """Within-group SSE over total SSE (0 = lossless).

    The within-group sum of squares of a group is
    ``trace(Sc) - |Fs|² / n``, so the measure needs no record-to-group
    memberships.
    """
    counts, firsts, seconds = group_arrays(groups)
    within = float(np.sum(np.trace(seconds, axis1=1, axis2=2)
                          - np.sum(firsts * firsts, axis=1) / counts))
    centered = data - data.mean(axis=0)
    return within / float(np.sum(centered * centered))


def covariance_compatibility(original: np.ndarray, released: np.ndarray) -> float:
    """Paper §4 μ: correlation of the two covariance matrices' entries."""
    rows, cols = np.triu_indices(original.shape[1])
    first = np.cov(original, rowvar=False, bias=True)[rows, cols]
    second = np.cov(released, rowvar=False, bias=True)[rows, cols]
    return float(np.corrcoef(first, second)[0, 1])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

class Checks:
    """Collects named pass/fail checks; a failure is printed at once."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def require(self, ok: bool, message: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)
        return bool(ok)

    def groups(self, groups, k: int, expected_total: int, label: str,
               data: np.ndarray | None = None) -> None:
        """Group-size floor, count conservation and, given the input,
        first-moment conservation."""
        counts, firsts, _ = group_arrays(groups)
        self.require(counts.size > 0 and int(counts.min()) >= k,
                     f"{label}: smallest group has "
                     f"{int(counts.min()) if counts.size else 0} < k={k} records")
        self.require(int(counts.sum()) == expected_total,
                     f"{label}: group counts sum to {int(counts.sum())}, "
                     f"expected {expected_total}")
        if data is not None:
            drift = np.abs(firsts.sum(axis=0) - data.sum(axis=0)).max()
            scale = max(1.0, float(np.abs(data).sum(axis=0).max()))
            self.require(drift <= MOMENT_RTOL * scale,
                         f"{label}: sum of Fs differs from sum of data by "
                         f"{drift:.3e} (scale {scale:.3e})")

    @property
    def correct(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def lower_quartile(values) -> float:
    """First quartile, interpolated between samples (never below the minimum)."""
    return float(statistics.quantiles(values, n=4, method="inclusive")[0])


def tail(values, min_beyond: int = 10):
    """Highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(value, percentile)``: the sample at rank
    ``len - min_beyond`` (0-based, sorted ascending), and the percentile
    that rank is.  ``inf`` entries (failed requests) sort last, so a
    failure counts as missing any limit.
    """
    ordered = sorted(values)
    if len(ordered) <= min_beyond:
        return ordered[-1], 100.0
    rank = len(ordered) - min_beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------

def stop_child_processes() -> None:
    """Stop every process multiprocessing started here and wait for each.

    Worker processes are terminated and joined first.  Then the
    shared-memory resource tracker, which the process backend starts,
    is stopped: left alone it outlives the interpreter by a moment while
    it drains its pipe, so a run would end with a process still running.
    Safe to call more than once; registered with ``atexit`` by the entry
    points so it also runs on a path out through an exception.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
