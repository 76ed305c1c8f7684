"""Serve workloads: open-loop HTTP load against a durable ``repro serve``.

Sequence of one run (all request counts are fixed, so they repeat):

1. Set-up: spawn the server on an empty durability root, wait for
   ``/healthz``, preload a fixed number of records.  Done
   ``SETUP_SAMPLES`` times on fresh roots; the median is ``setup_s`` and
   the last server is kept.
2. Reference rung: ``/ingest`` at the workload's reference rate, with
   ``/generate`` and ``/model`` reads interleaved on the same
   connections.  Gives the latency figures and the ``/model`` polls the
   differencing adversary works on.
3. Rate search for the highest offered rate whose ingest tail stays
   within the latency limit while the generator's lateness does not grow
   (``max_ingest_records_per_s``).  It is open-ended: the rate is
   multiplied by ``RAMP_FACTOR`` from the reference rate until a rung
   fails (divided, if the reference rung failed), up to ``RAMP_LIMIT``
   times the reference, and then bisected ``BISECTION_STEPS`` times on a
   log scale between the last passing and the first failing rate.
   ``records_per_s`` is what the highest passing rung achieved: records
   acknowledged per second up to its last reply, a measured number
   rather than a point of the search grid.
4. Release: ``/generate`` of as many records as were acknowledged, for
   the covariance compatibility μ against every acknowledged record.
5. SIGKILL the server, restart it on the same root, and require the
   restarted ``/model`` to be byte-identical to the pre-kill one.

Every rung, the reference rung included, sends the same number of
ingests, so the ingest tail is the same percentile on every rung.
Request counts, not ``--seconds``, fix how long a serve run measures.

A traced run (``--trace 1``) makes two passes over the same inputs --
set-up, reference rung, kill and restart -- first with plain
``python -m repro.cli serve`` and then under
``perfbench/serve_launcher.py``, which records layer spans in the server.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import common
from perfbench.loadgen import OpenLoopClient, Request, latency_s, lateness_s
from perfbench.tracing import merge_totals

HOST = "127.0.0.1"
#: Set-up samples per untraced run (the last server is kept).
SETUP_SAMPLES = 5
#: Seconds to wait for a server to become ready or to exit.
READY_TIMEOUT_S = 90.0
#: Records per preload request.
PRELOAD_BATCH = 64
#: Connections used by the load generator: at most one per CPU.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Records asked of each periodic ``/generate`` read.
GENERATE_N = 200
#: Rate search: ramp step, how far the ramp may go from the reference
#: rate (as a factor), and log-scale bisection steps after it.  Four
#: steps resolve the rate to within 2 ** (1 / 16) - 1 ≈ 4.4 %.
RAMP_FACTOR = 2.0
RAMP_LIMIT = 64.0
BISECTION_STEPS = 4


def server_flags(spec: dict) -> list[str]:
    """``repro serve`` flags for the workload's server settings."""
    return ["--shards", str(spec["shards"]), "--k", str(spec["k"]),
            "--batch-size", str(spec["batch_size"]),
            "--fsync-every", str(spec["fsync_every"]),
            "--checkpoint-every", str(spec["checkpoint_every"])]


class Server:
    """One ``repro serve`` process on a durability root."""

    def __init__(self, spec: dict, work: Path, seed: int, trace_out: Path | None):
        self.spec = spec
        self.work = work
        self.root = work / "durable"
        self.seed = seed
        self.trace_out = trace_out
        self.process = None
        self.port = None
        self.log = None

    def start(self) -> float:
        """Spawn and wait until ``/healthz`` answers 200; returns seconds."""
        port_file = self.work / "port"
        port_file.unlink(missing_ok=True)
        argv = ["serve", "--host", HOST, "--port", "0", "--port-file", str(port_file),
                "--checkpoint-dir", str(self.root), "--seed", str(self.seed),
                *server_flags(self.spec)]
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            command = [sys.executable, str(common.HERE / "serve_launcher.py"),
                       str(self.trace_out), *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.log = open(self.work / "server.log", "ab")
        started = time.perf_counter()
        # Its own process group, so a kill reaches anything it starts.
        self.process = subprocess.Popen(command, env=env, stdout=self.log,
                                        stderr=subprocess.STDOUT, cwd=self.work,
                                        start_new_session=True)
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}:\n"
                                   + self.log_tail())
            if time.perf_counter() - started > READY_TIMEOUT_S:
                tail = self.log_tail()
                self.kill()
                raise RuntimeError("server did not become ready:\n" + tail)
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                status, _ = self.get("/healthz", quiet=True)
                if status == 200:
                    return time.perf_counter() - started
            time.sleep(0.005)

    def log_tail(self) -> str:
        self.log.flush()
        return (self.work / "server.log").read_bytes()[-3000:].decode(errors="replace")

    def get(self, path: str, quiet: bool = False):
        """One GET on a fresh connection: ``(status, body)``."""
        connection = http.client.HTTPConnection(HOST, self.port, timeout=120)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            if not quiet:
                raise
            return -1, b""
        finally:
            connection.close()

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans now (before a SIGKILL)."""
        self.trace_out.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while not self.trace_out.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        self._reap()

    def stop(self) -> None:
        """SIGTERM (drain, checkpoint, close) and wait; SIGKILL if stuck."""
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(READY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self._reap()

    def _reap(self) -> None:
        if self.process is not None:
            self.process.wait()
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass  # the group is already empty
        if self.log is not None:
            self.log.close()
            self.log = None


def _body(rows: np.ndarray) -> bytes:
    if rows.shape[0] == 1:
        return json.dumps({"record": rows[0].tolist()}).encode()
    return json.dumps({"records": rows.tolist()}).encode()


class _Feed:
    """Hands out consecutive rows of the workload's input, once each."""

    def __init__(self, data: np.ndarray):
        self.data = data
        self.next = 0

    def take(self, count: int) -> tuple[int, np.ndarray]:
        start = self.next
        if start + count > self.data.shape[0]:
            raise RuntimeError("workload input exhausted")
        self.next += count
        return start, self.data[start:start + count]


def _schedule(spec: dict, feed: _Feed, rate_rps: float, n_ingest: int, polls: bool):
    """Ingests every ``1/rate`` s, with reads between them.

    Every ``read_every`` ingests one ``/model`` and one ``/generate`` go
    out, each half an interval after an ingest.  Returns the schedule and
    the first input row of each ingest (``-1`` for reads).
    """
    interval = 1.0 / rate_rps
    every = spec["read_every"]
    schedule, rows = [], []
    for index in range(n_ingest):
        due = index * interval
        start, block = feed.take(spec["records_per_request"])
        schedule.append(Request(due, "ingest", "POST", "/ingest", _body(block),
                                records=block.shape[0]))
        rows.append(start)
        phase = index % every
        if phase == 0:
            schedule.append(Request(due + interval / 2, "model", "GET", "/model",
                                    keep_body=polls))
            rows.append(-1)
        elif phase == every // 2:
            schedule.append(Request(due + interval / 2, "generate", "GET",
                                    f"/generate?n={GENERATE_N}"))
            rows.append(-1)
    return schedule, rows


class _Rung:
    """One fixed-count stretch of load at one offered rate."""

    def __init__(self, rate_rps, schedule, rows, outcomes, inflight_max, limit_s,
                 growth_limit_s):
        self.rate_rps = rate_rps
        self.inflight_max = inflight_max
        self.schedule, self.rows, self.outcomes = schedule, rows, outcomes
        pairs = list(zip(schedule, outcomes))
        self.latency = {kind: [latency_s(r, o) for r, o in pairs if r.kind == kind]
                        for kind in ("ingest", "generate", "model")}
        self.tail, self.tail_pct = common.tail(self.latency["ingest"])
        lateness = [lateness_s(r, o) for r, o in pairs]
        quarter = max(1, len(lateness) // 4)
        self.lateness = lateness
        self.lateness_growth = (common.median(lateness[-quarter:])
                                - common.median(lateness[:quarter]))
        self.failed = sum(1 for o in outcomes if not o.ok)
        acknowledged = sum(r.records for r, o in pairs if r.kind == "ingest" and o.ok)
        #: Records acknowledged per second of the rung, up to its last reply.
        self.achieved = acknowledged / max(o.done for o in outcomes)
        self.passed = self.tail <= limit_s and self.lateness_growth <= growth_limit_s

    def acknowledged_rows(self):
        for request, outcome, row in zip(self.schedule, self.outcomes, self.rows):
            if request.kind == "ingest" and outcome.ok:
                yield row, request.records

    def describe(self) -> str:
        return (f"rung {self.rate_rps:8.2f} req/s: ingest p50 "
                f"{common.median(self.latency['ingest']) * 1e3:8.1f} ms, "
                f"p{self.tail_pct:.0f} {self.tail * 1e3:8.1f} ms, lateness growth "
                f"{self.lateness_growth * 1e3:7.1f} ms, failed {self.failed} -> "
                f"{'pass' if self.passed else 'FAIL'}")


def model_exposure(rung: _Rung, data: np.ndarray) -> tuple[int, int]:
    """Records recovered by differencing consecutive ``/model`` polls.

    For each group of a poll that has exactly one record more than a
    group of the same shard in the previous poll, ``Fs_new - Fs_old`` is
    a candidate record; it is accepted when ``Sc_new - Sc_old`` equals
    its outer product, and counted when it equals a row ingested between
    the two polls.  Returns ``(recovered, ingested between polls)``.
    """
    polls = [(index, json.loads(outcome.body))
             for index, (request, outcome) in enumerate(zip(rung.schedule, rung.outcomes))
             if request.kind == "model" and outcome.ok]
    recovered = between = 0
    for (first_index, old), (second_index, new) in zip(polls, polls[1:]):
        rows = [data[row:row + request.records]
                for request, row in zip(rung.schedule[first_index:second_index],
                                        rung.rows[first_index:second_index])
                if request.kind == "ingest"]
        if not rows:
            continue
        candidates = np.vstack(rows)
        between += candidates.shape[0]
        found = np.zeros(candidates.shape[0], dtype=bool)
        for old_shard, new_shard in zip(old["shards"], new["shards"]):
            old_counts, old_fs, old_sc = common.group_arrays(old_shard["groups"])
            new_counts, new_fs, new_sc = common.group_arrays(new_shard["groups"])
            for index, (count, fs, sc) in enumerate(zip(new_counts, new_fs, new_sc)):
                same = index < old_counts.size
                if same and old_counts[index] == count and np.array_equal(old_fs[index], fs):
                    continue
                order = [index] if same and old_counts[index] == count - 1 else []
                order += [p for p in np.flatnonzero(old_counts == count - 1) if p != index]
                for previous in order:
                    vector = fs - old_fs[previous]
                    scale = max(1.0, float(np.abs(sc).max()))
                    if np.allclose(sc - old_sc[previous], np.outer(vector, vector),
                                   rtol=0, atol=1e-9 * scale):
                        match = np.all(np.isclose(candidates, vector, rtol=1e-9,
                                                  atol=1e-9 * max(1.0, np.abs(fs).max())),
                                       axis=1)
                        found |= match
                        break
        recovered += int(found.sum())
    return recovered, between


def _stored_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class _Pass:
    """One pass of a serve workload against one server lineage."""

    def __init__(self, spec, seed, data, work: Path, checks, trace_dir: Path | None):
        self.spec, self.seed, self.data, self.checks = spec, seed, data, checks
        self.work = work
        self.trace_dir = trace_dir
        self.feed = _Feed(data)
        self.acknowledged = 0
        self.acked_rows: list[np.ndarray] = []
        self.attempted = self.failed = 0
        self.server = None
        self.dumps: list[dict] = []

    def _server(self, label: str) -> Server:
        directory = self.work / label
        directory.mkdir(parents=True)
        trace_out = None if self.trace_dir is None else self.trace_dir / f"{label}.json"
        return Server(self.spec, directory, self.seed, trace_out)

    def setup(self, samples: int) -> list[float]:
        """Spawn + preload ``samples`` times; keep the last server."""
        timings = []
        preload_start = self.feed.next
        for sample in range(samples):
            self.feed.next = preload_start
            server = self.server = self._server(f"server-{sample}")
            took = server.start()
            started = time.perf_counter()
            self._preload(server)
            timings.append(took + time.perf_counter() - started)
            if sample < samples - 1:
                server.kill()
                shutil.rmtree(server.work)
        self.acked_rows.append(self.data[preload_start:self.feed.next])
        self.acknowledged += self.feed.next - preload_start
        return timings

    def _preload(self, server: Server) -> None:
        connection = http.client.HTTPConnection(HOST, server.port, timeout=120)
        try:
            remaining = self.spec["preload_records"]
            while remaining:
                _, block = self.feed.take(min(PRELOAD_BATCH, remaining))
                connection.request("POST", "/ingest", body=_body(block),
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(f"preload request refused: {response.status}")
                remaining -= block.shape[0]
        finally:
            connection.close()

    def rung(self, rate_rps: float, n_ingest: int, polls: bool = False) -> _Rung:
        schedule, rows = _schedule(self.spec, self.feed, rate_rps, n_ingest, polls)
        client = OpenLoopClient(HOST, self.server.port, CONNECTIONS)
        outcomes = client.run(schedule)
        rung = _Rung(rate_rps, schedule, rows, outcomes, client.inflight_max,
                     self.spec["latency_limit_ms"] / 1e3,
                     self.spec["lateness_growth_limit_ms"] / 1e3)
        for row, count in rung.acknowledged_rows():
            self.acked_rows.append(self.data[row:row + count])
            self.acknowledged += count
        self.attempted += len(schedule)
        self.failed += rung.failed
        print(rung.describe(), file=sys.stderr, flush=True)
        return rung

    def search(self, reference: _Rung) -> _Rung:
        """Open-ended ramp, then fixed bisection, for the highest passing rate.

        Returns the passing rung with the highest offered rate or, when
        none passed, the lowest rung tried.
        """
        count = self.spec["rung_requests"]
        rate = reference.rate_rps
        passing = reference if reference.passed else None
        failing_rate = None if reference.passed else rate
        lowest = reference
        step = RAMP_FACTOR if reference.passed else 1.0 / RAMP_FACTOR
        while True:
            rate *= step
            if not 1.0 / RAMP_LIMIT <= rate / reference.rate_rps <= RAMP_LIMIT:
                break
            rung = self.rung(rate, count)
            lowest = min(lowest, rung, key=lambda each: each.rate_rps)
            if rung.passed:
                passing = rung
                if step < 1.0:
                    break
            else:
                failing_rate = rate
                if step > 1.0:
                    break
        if passing is None:
            print("no searched rate met the limit", file=sys.stderr)
            return lowest
        if failing_rate is not None:
            low, high = passing.rate_rps, failing_rate
            for _ in range(BISECTION_STEPS):
                rung = self.rung(math.sqrt(low * high), count)
                if rung.passed:
                    low, passing = rung.rate_rps, rung
                else:
                    high = rung.rate_rps
        return passing

    def release(self) -> float:
        """``/generate`` one record per acknowledged record; returns μ."""
        status, body = self.server.get(f"/generate?n={self.acknowledged}")
        self.attempted += 1
        self.failed += status != 200
        released = np.asarray(json.loads(body)["records"], dtype=float)
        self.checks.require(released.shape == (self.acknowledged, self.data.shape[1])
                            and bool(np.isfinite(released).all()),
                            f"release of shape {released.shape} is not "
                            f"{self.acknowledged} finite records")
        return common.covariance_compatibility(np.vstack(self.acked_rows), released)

    def restart(self) -> tuple[float, float]:
        """Check the model, SIGKILL, restart, re-check; returns
        ``(recover_s, stored bytes per record)``."""
        stored = _stored_bytes(self.server.root) / self.acknowledged
        status, before = self.server.get("/model")
        self.checks.require(status == 200, f"/model answered {status}")
        document = json.loads(before)
        groups = [group for shard in document["shards"] for group in shard["groups"]]
        self.checks.groups(groups, self.spec["k"], self.acknowledged, "served model")
        if self.server.trace_out is not None:
            self.server.dump_spans()
            self.dumps.append(json.loads(self.server.trace_out.read_text()))
        started = time.perf_counter()
        self.server.kill()
        if self.server.trace_out is not None:
            self.server.trace_out = self.trace_dir / "restarted.json"
        self.server.start()
        recover_s = time.perf_counter() - started
        status, after = self.server.get("/model")
        self.checks.require(status == 200 and after == before,
                            "restarted server's /model differs from the pre-kill /model")
        return recover_s, stored

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.stop()
            if server.trace_out is not None and server.trace_out.exists():
                self.dumps.append(json.loads(server.trace_out.read_text()))


def _latency_summary(rung: _Rung) -> dict:
    return {
        "ingest_p50_ms": common.metric(common.median(rung.latency["ingest"]) * 1e3, "ms"),
        "ingest_tail_ms": common.metric(rung.tail * 1e3, "ms"),
        "ingest_tail_percentile": common.metric(rung.tail_pct, "percentile"),
        "generate_p50_ms": common.metric(common.median(rung.latency["generate"]) * 1e3,
                                         "ms"),
        "model_p50_ms": common.metric(common.median(rung.latency["model"]) * 1e3, "ms"),
    }


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    checks = common.Checks()
    # Reference rung, longest possible ramp, bisection.
    rungs = 1 + math.ceil(math.log(RAMP_LIMIT, RAMP_FACTOR)) + BISECTION_STEPS
    rows = spec["preload_records"] + spec["records_per_request"] * spec["rung_requests"] * rungs
    data = common.correlated_blobs(seed, rows, spec["d"])
    work = common.ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    passes = []
    try:
        if trace:
            return _traced(spec, seed, data, work, checks, passes)
        run_pass = _Pass(spec, seed, data, work / "run", checks, None)
        passes.append(run_pass)
        setup = run_pass.setup(SETUP_SAMPLES)
        reference = run_pass.rung(spec["reference_rate_rps"], spec["rung_requests"],
                                  polls=True)
        best = run_pass.search(reference)
        compatibility = run_pass.release()
        recover_s, stored = run_pass.restart()
        recovered, between = model_exposure(reference, data)
        attempted = run_pass.attempted
        return {
            "checks": checks,
            "attempted": attempted,
            "failed": run_pass.failed,
            "e2e": {
                "setup_s": common.metric(common.median(setup), "s"),
                "records_per_s": common.metric(best.achieved, "records/s"),
                "covariance_compatibility": common.metric(compatibility, "ratio"),
            },
            "info": {
                "max_ingest_records_per_s": common.metric(
                    best.rate_rps * spec["records_per_request"], "records/s"),
                **_latency_summary(reference),
                "recover_s": common.metric(recover_s, "s"),
                "stored_bytes_per_record": common.metric(stored, "B/record"),
                "model_exposure_ratio": common.metric(
                    recovered / between if between else 0.0, "ratio"),
                "model_exposure_recovered": common.metric(recovered, "records"),
                "model_exposure_between_polls": common.metric(between, "records"),
                "failed_ratio": common.metric(run_pass.failed / attempted, "ratio"),
                "acknowledged_records": common.metric(run_pass.acknowledged, "records"),
            },
        }
    finally:
        for each in passes:
            each.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def _traced(spec, seed, data, work, checks, passes) -> dict:
    """Untraced pass, then traced pass, over the same inputs."""
    rungs = []
    for label, trace_dir in (("untraced", None), ("traced", work / "spans")):
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        run_pass = _Pass(spec, seed, data, work / label, checks, trace_dir)
        passes.append(run_pass)
        run_pass.setup(1)
        rungs.append(run_pass.rung(spec["reference_rate_rps"], spec["rung_requests"]))
        run_pass.restart()
        status, body = run_pass.server.get("/healthz")
        groups = json.loads(body)["n_groups"] if status == 200 else 0
        run_pass.close()
    totals = merge_totals(passes[-1].dumps)
    untraced, traced = rungs
    lateness = [value * 1e3 for value in traced.lateness]
    return {
        "checks": checks,
        "attempted": sum(each.attempted for each in passes),
        "failed": sum(each.failed for each in passes),
        "trace": {
            "totals": totals,
            "overhead_ratio": (common.median(traced.latency["ingest"])
                               / common.median(untraced.latency["ingest"])),
            "groups": groups,
            "lateness_p50_ms": common.median(lateness),
            "lateness_max_ms": max(lateness),
            "inflight_max": traced.inflight_max,
        },
    }

