"""Batch workloads: raw array in, anonymized array out, in this process.

``batch-serial`` runs the paper's static condensation
(``create_condensed_groups``, random seeding) on the whole array;
``batch-sharded`` runs ``condense_sharded`` on the process backend.  Both
then regenerate an anonymized array of the same size with
``generate_anonymized_data``.

The release is repeated for ``--seconds`` (at least ``MIN_REPS`` times)
and ``records_per_s`` divides the record count by the *lower quartile* of
the release times.  On a host shared with other tenants, contention only
ever adds time, and it comes and goes over seconds to minutes; the lower
quartile of a run's releases tracks the program's own cost while a
median follows how busy the host happened to be (8 runs of 25 s on the
2-vCPU VM this was defined on: 0.05 IQR/median across runs for the lower
quartile, 0.11 for the median).  The median is printed as
``release_s_median``.

Set-up (import plus a warm-up call on a tiny input, which spawns the
worker pool for the sharded workload) is timed ``SETUP_SAMPLES`` times --
all but once in fresh interpreters started by
``python perfbench/batch.py --setup-probe``, and once in this process --
and reported as the median.
"""

from __future__ import annotations

import atexit
import json
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                    str(Path(__file__).resolve().parents[1])]

from perfbench import common  # noqa: E402

#: Records in the warm-up input.
WARMUP_RECORDS = 400
#: Set-up samples per run (one in-process, the rest in fresh interpreters).
SETUP_SAMPLES = 7
#: Timed releases per untraced run, at the least.
MIN_REPS = 3
#: Timed releases per pass in a traced run (untraced and traced alike).
TRACE_REPS = 2
SHM_DIR = Path("/dev/shm")


def _warmup_input(spec: dict, seed: int):
    return common.correlated_blobs(seed + 1, WARMUP_RECORDS, spec["d"])


def _setup(spec: dict, tiny):
    """Import the program and make one warm-up release; returns modules."""
    import repro.core as core

    if spec["sharded"]:
        import repro.parallel as parallel

        model = parallel.condense_sharded(
            tiny, spec["k"], random_state=0, n_shards=2,
            n_workers=spec["n_workers"], backend="process")
    else:
        parallel = None
        model = core.create_condensed_groups(tiny, spec["k"], strategy="random",
                                             random_state=0)
    core.generate_anonymized_data(model, random_state=0)
    return core, parallel


def setup_probe(name: str, seed: int) -> float:
    """Time import plus warm-up in this (fresh) interpreter."""
    spec = common.load_workloads()[name]
    tiny = _warmup_input(spec, seed)
    start = time.perf_counter()
    _setup(spec, tiny)
    return time.perf_counter() - start


def _probe_in_subprocess(name: str, seed: int) -> float:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr[-2000:]}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def _shm_segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in SHM_DIR.iterdir() if entry.name.startswith("psm_")}


class _Release:
    """One timed condense + generate call on the benchmark input."""

    def __init__(self, spec, seed, data, core, parallel, checks):
        self.spec, self.seed, self.data = spec, seed, data
        self.core, self.parallel, self.checks = core, parallel, checks
        self.reference_digest = None
        self.failed = 0

    def condense(self, backend="process"):
        spec = self.spec
        if spec["sharded"]:
            return self.parallel.condense_sharded(
                self.data, spec["k"], random_state=self.seed,
                n_shards=spec["n_shards"], n_workers=spec["n_workers"], backend=backend)
        return self.core.create_condensed_groups(self.data, spec["k"], strategy="random",
                                                 random_state=self.seed)

    def __call__(self, label):
        start = time.perf_counter()
        model = self.condense()
        condensed = time.perf_counter()
        released = self.core.generate_anonymized_data(model, random_state=self.seed)
        end = time.perf_counter()
        self.check(model, released, label)
        return condensed - start, end - start, model, released

    def check(self, model, released, label):
        spec, checks = self.spec, self.checks
        checks.groups(model.groups, spec["k"], self.data.shape[0], label, self.data)
        if released is not None:
            checks.require(released.shape == self.data.shape,
                           f"{label}: released shape {released.shape} != {self.data.shape}")
        digest = common.model_digest(model.groups)
        if self.reference_digest is None:
            self.reference_digest = digest
        else:
            what = "serial-backend" if spec["sharded"] else "first release's"
            checks.require(digest == self.reference_digest,
                           f"{label}: model digest differs from the {what} digest")
        parallel_meta = model.metadata.get("parallel", {})
        if parallel_meta.get("degraded"):
            self.failed += 1
            print(f"{label}: process backend degraded to "
                  f"{parallel_meta.get('effective_backend')}", file=sys.stderr)


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    checks = common.Checks()
    shm_before = _shm_segments()
    setup_samples = [_probe_in_subprocess(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    tiny = _warmup_input(spec, seed)
    data = common.correlated_blobs(seed, spec["n"], spec["d"])

    start = time.perf_counter()
    core, parallel = _setup(spec, tiny)
    setup_samples.append(time.perf_counter() - start)

    release = _Release(spec, seed, data, core, parallel, checks)
    attempted = 0
    serial_condense_s = None
    if spec["sharded"]:
        started = time.perf_counter()
        reference = release.condense(backend="serial")
        serial_condense_s = time.perf_counter() - started
        release.check(reference, None, "serial-backend reference")
        attempted += 1

    condense_s, release_s = [], []
    began = time.perf_counter()
    while True:
        attempted += 1
        took_condense, took_release, model, released = release(f"release {attempted}")
        condense_s.append(took_condense)
        release_s.append(took_release)
        done = len(release_s)
        if trace and done >= TRACE_REPS:
            break
        if not trace and done >= MIN_REPS and time.perf_counter() - began >= seconds:
            break

    result = {
        "checks": checks,
        "attempted": attempted,
        "failed": release.failed,
        "e2e": {
            "setup_s": common.metric(common.median(setup_samples), "s"),
            "records_per_s": common.metric(
                data.shape[0] / common.lower_quartile(release_s), "records/s"),
            "covariance_compatibility": common.metric(
                common.covariance_compatibility(data, released), "ratio"),
        },
        "info": {
            "release_s": common.metric(common.lower_quartile(release_s), "s"),
            "release_s_median": common.metric(common.median(release_s), "s"),
            "information_loss": common.metric(common.information_loss(data, model.groups),
                                              "ratio"),
            "failed_ratio": common.metric(release.failed / attempted, "ratio"),
            "groups": common.metric(len(model.groups), "count"),
            "releases": common.metric(len(release_s), "count"),
            "condense_s": common.metric(common.lower_quartile(condense_s), "s"),
        },
    }

    if trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced_s = []
        for rep in range(TRACE_REPS):
            attempted += 1
            traced_s.append(release(f"traced release {rep + 1}")[1])
        result["attempted"] = attempted
        result["failed"] = release.failed
        result["trace"] = {
            "totals": tracer.totals(),
            "overhead_ratio": common.median(traced_s) / common.median(release_s),
            "groups": len(model.groups),
            "speedup_vs_sharded_serial": (
                serial_condense_s / common.median(condense_s) if serial_condense_s else 0.0),
        }

    if spec["sharded"]:
        if hasattr(parallel, "shutdown_shared_pool"):
            parallel.shutdown_shared_pool()
        leaked = _shm_segments() - shm_before
        checks.require(not leaked, f"shared-memory payload segments outlived the run: "
                                   f"{sorted(leaked)}")
    common.stop_child_processes()
    return result


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--setup-probe" and sys.argv[3] == "--seed":
        atexit.register(common.stop_child_processes)
        print(json.dumps({"setup_s": setup_probe(sys.argv[2], int(sys.argv[4]))}))
        sys.exit(0)
    print("usage: batch.py --setup-probe WORKLOAD --seed N", file=sys.stderr)
    sys.exit(2)
