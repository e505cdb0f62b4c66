"""Closed-loop load on the ER service, over HTTP or against the library.

Each tenant is one closed-loop client: it sends its next request only after
the previous one answered.  A tenant first bulk-loads about 80% of its
profiles in 1,000-profile batches, then repeats a fixed cycle on the rest:

    POST a small batch -> GET candidates/{new id}
      -> GET matches/{new id}?budget=500 (cold: the ingest dropped the cached
         ranking prefix) -> WARM_PER_CYCLE x GET matches/{other id}?budget=b
         (warm: b is drawn from 1..500, so the cached prefix serves it)

A warm call's work grows with its budget.  With one budget for all of them
every warm call did the same work, and on a host whose speed switches
between two levels 40% apart for seconds at a time, their median in a run
jumped between the two levels with the share of time spent at each.
Drawn budgets spread the calls' work, so the median moves with that share
instead of jumping.

Over HTTP the tenants run in lockstep (see :func:`lockstep`); in the library
they take turns and start a new pass when the cycles run out (see
:class:`LibraryPasses`).

``HttpTenant`` drives a ``repro.cli serve`` process; ``LibraryTenant`` calls
the same operations on an in-process ``ServiceCollection``.  The library form
is also the twin the output check compares the server's answers with.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

PRELOAD_SHARE = 0.8
PRELOAD_BATCH = 1_000
CYCLE_BATCH = 10
BUDGET = 500
WARM_PER_CYCLE = 8
PROBES = 6
OPS = ("ingest", "candidates", "cold_match", "warm_match")


def tenant_payloads(num_entities: int, seed: int) -> list[dict]:
    """The profiles of ``generate_scalability_products`` as ingest payloads."""
    from repro.data.synthetic import generate_scalability_products

    dataset = generate_scalability_products(num_entities, seed=seed)
    return [
        {
            "id": profile.profile_id,
            "source": profile.source_id,
            "attributes": {
                kv.attribute: profile.values_of(kv.attribute) for kv in profile.attributes
            },
        }
        for profile in sorted(dataset.profiles, key=lambda p: p.profile_id)
    ]


class TenantPlan:
    """The fixed batch sequence of one tenant."""

    def __init__(self, name: str, payloads: list[dict], seed: int) -> None:
        self.name = name
        cut = int(len(payloads) * PRELOAD_SHARE)
        self.preload = [
            {"profiles": payloads[start : min(start + PRELOAD_BATCH, cut)]}
            for start in range(0, cut, PRELOAD_BATCH)
        ]
        self.cycles = [
            {"profiles": payloads[start : start + CYCLE_BATCH]}
            for start in range(cut, len(payloads), CYCLE_BATCH)
        ]
        self.seed = seed

    def load(self, client, record: "LoadRecord") -> float:
        """Bulk-load the tenant, then one ``candidates`` call (the full build).

        Returns the seconds the bulk load took, up to the last batch's ack.
        """
        started = time.perf_counter()
        for batch in self.preload:
            ok, _ = record.timed(None, client.ingest, batch)
            if not ok:
                raise RuntimeError(f"tenant {self.name}: bulk-load batch refused")
        loaded = time.perf_counter() - started
        record.timed(None, client.candidates, self.preload[0]["profiles"][0]["id"])
        return loaded


class HttpTenant:
    """One tenant of a running server, one connection per request."""

    def __init__(self, port: int, name: str) -> None:
        self.port = port
        self.name = name

    def call(self, method: str, path: str, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {} if data is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            payload = json.loads(response.read() or b"null")
            return 200 <= response.status < 300, payload
        finally:
            connection.close()

    def ingest(self, batch: dict):
        return self.call("POST", f"/collections/{self.name}/profiles", batch)

    def candidates(self, profile_id: int):
        return self.call("GET", f"/collections/{self.name}/candidates/{profile_id}")

    def matches(self, profile_id: int, budget: int):
        return self.call(
            "GET", f"/collections/{self.name}/matches/{profile_id}?budget={budget}"
        )


class LibraryTenant:
    """The same operations on an in-process ``ServiceCollection``."""

    def __init__(self, name: str) -> None:
        from repro.service.collection import CollectionConfig, ServiceCollection

        self.collection = ServiceCollection(CollectionConfig(name=name, clean_clean=True))

    def ingest(self, batch: dict):
        return True, self.collection.ingest(batch)

    def candidates(self, profile_id: int):
        return True, self.collection.candidates(profile_id)

    def matches(self, profile_id: int, budget: int):
        return True, self.collection.matches(profile_id, budget)

    def close(self) -> None:
        self.collection.close()


class LoadRecord:
    """Latencies per operation (``inf`` for a failed request) and counts."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {op: [] for op in OPS}
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def timed(self, op: "str | None", call, *args):
        started = time.perf_counter()
        try:
            ok, payload = call(*args)
        except (OSError, http.client.HTTPException, ValueError):
            ok, payload = False, None
        elapsed = time.perf_counter() - started
        with self._lock:
            self.attempted += 1
            self.failed += not ok
            if op is not None:
                self.latencies[op].append(elapsed if ok else math.inf)
        return ok, payload


class TenantLoop:
    """One tenant's cycle phase, run a cycle at a time."""

    def __init__(self, client, plan: TenantPlan, record: LoadRecord) -> None:
        self.client = client
        self.plan = plan
        self.record = record
        self.rng = random.Random(plan.seed)
        self.known = [p["id"] for batch in plan.preload for p in batch["profiles"]]
        self.acked: list[dict] = []
        self.done = 0
        self.new_id = None

    @property
    def remaining(self) -> int:
        return len(self.plan.cycles) - self.done

    def step(self, op: str) -> None:
        """One step of the cycle: the ``OPS`` in order make one cycle."""
        client, record = self.client, self.record
        if op == "ingest":
            batch = self.plan.cycles[self.done]
            self.done += 1
            self.new_id = batch["profiles"][0]["id"]
            ok, _ = record.timed("ingest", client.ingest, batch)
            if ok:
                self.acked.append(batch)
                self.known.extend(p["id"] for p in batch["profiles"])
        elif op == "candidates":
            record.timed("candidates", client.candidates, self.new_id)
        elif op == "cold_match":
            record.timed("cold_match", client.matches, self.new_id, BUDGET)
        else:
            for _ in range(WARM_PER_CYCLE):
                budget = self.rng.randint(1, BUDGET)
                record.timed("warm_match", client.matches, self.rng.choice(self.known), budget)

    def cycle(self) -> None:
        for op in OPS:
            self.step(op)


class LibraryPasses:
    """Library tenants whose cycle phase starts over when it runs out.

    A pass bulk-loads fresh collections (untimed) and then runs the plans'
    cycles, so every pass repeats the same operations and a run can time
    cycles for as long as it lasts.  The tenants run one after the other:
    two threads in one process would time each other's hold on the
    interpreter lock.
    """

    def __init__(self, plans: list[TenantPlan], record: LoadRecord) -> None:
        self.plans = plans
        self.record = record
        self.loops: list[TenantLoop] = []
        self.cycles = 0  # cycles of each tenant, over every pass
        self.cycle_s = 0.0
        self.stats: list[dict] = []  # ServiceCollection.stats() of every pass

    def _start_pass(self) -> None:
        self.close()
        self.loops = [TenantLoop(LibraryTenant(plan.name), plan, self.record)
                      for plan in self.plans]
        for loop in self.loops:
            loop.plan.load(loop.client, LoadRecord())

    @property
    def pass_done(self) -> bool:
        return bool(self.loops) and min(loop.remaining for loop in self.loops) == 0

    def _seconds_per_cycle(self) -> float:
        return self.cycle_s / self.cycles if self.cycles else 0.0

    def pass_seconds(self) -> float:
        """Expected cycle seconds of a whole pass."""
        return min(len(plan.cycles) for plan in self.plans) * self._seconds_per_cycle()

    def seconds_to_pass_end(self) -> float:
        """Expected cycle seconds left in the current pass (0 when it is done)."""
        remaining = min((loop.remaining for loop in self.loops), default=0)
        return remaining * self._seconds_per_cycle()

    def _cycle(self) -> float:
        """One timed cycle of every tenant, in turn; returns its seconds."""
        if not self.loops or self.pass_done:
            self._start_pass()
        began = time.perf_counter()
        for loop in self.loops:
            loop.cycle()
        elapsed = time.perf_counter() - began
        self.cycles += 1
        self.cycle_s += elapsed
        return elapsed

    def run_for(self, seconds: float) -> None:
        """Cycles for about ``seconds`` of cycle time, at least one."""
        spent = self._cycle()
        while spent < seconds:
            spent += self._cycle()

    def finish_pass(self) -> None:
        """Cycles up to the end of the current pass.

        The collections grow as a pass goes on and the later cycles are
        slower (``candidates`` by three quarters at 1,000 entities), so a
        run that stopped inside a pass would time a different mix.
        """
        while not self.pass_done:
            self._cycle()

    def close(self) -> None:
        for loop in self.loops:
            self.stats.append(loop.client.collection.stats())
            loop.client.close()
        self.loops = []


def lockstep(loops: list[TenantLoop], cycles: int) -> None:
    """Run ``cycles`` cycles of every tenant, one thread each.

    Every step starts on all tenants together (a barrier), so each request
    runs beside the other tenant's request of the same kind, in every cycle
    and every run.  Free-running loops met in a different phase each run,
    which moved the median candidates latency by a third and the warm tail
    threefold between runs.
    """
    barrier = threading.Barrier(len(loops))
    errors: list[BaseException] = []

    def body(loop: TenantLoop) -> None:
        try:
            for _ in range(cycles):
                for op in OPS:
                    barrier.wait(timeout=300)
                    loop.step(op)
        except Exception as error:  # re-raised below, never swallowed
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=body, args=(loop,)) for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def probe_ids(plan: TenantPlan, acked: list[dict]) -> list[int]:
    """Fixed probe profiles: the first, the last acked and seeded others."""
    ids = [p["id"] for batch in plan.preload + acked for p in batch["profiles"]]
    rng = random.Random(plan.seed * 7919 + 1)
    return sorted({ids[0], ids[-1], *rng.sample(ids, min(PROBES, len(ids)))})


def answers(client, ids: list[int]) -> dict:
    """``candidates`` and ``matches`` of every probe, minus volatile keys."""
    out = {}
    for profile_id in ids:
        ok_c, cands = client.candidates(profile_id)
        ok_m, matches = client.matches(profile_id, BUDGET)
        if not (ok_c and ok_m):
            out[profile_id] = None
            continue
        out[profile_id] = {
            "candidates": json.loads(json.dumps(cands["candidates"])),
            "matches": {
                key: json.loads(json.dumps(matches[key]))
                for key in ("budget", "scheduled", "exhausted", "candidates", "matches")
            },
        }
    return out


def twin_answers(plan: TenantPlan, acked: list[dict], ids: list[int]) -> dict:
    """The probes answered by a library collection fed the same batches."""
    twin = LibraryTenant(plan.name)
    try:
        for batch in plan.preload + acked:
            twin.ingest(batch)
        return answers(twin, ids)
    finally:
        twin.close()


class Server:
    """One ``repro.cli serve`` process with a WAL, started and stopped."""

    def __init__(self, root: Path, workdir: Path, names: list[str], spans: "Path | None"):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        spec = workdir / "service_spec.json"
        spec.write_text(
            json.dumps({"collections": [{"name": n, "clean_clean": True} for n in names]}),
            encoding="utf-8",
        )
        tmp = workdir / "tmp"
        tmp.mkdir(exist_ok=True)
        serve = ["serve", "--port", "0", "--spec", str(spec), "--wal-dir", str(workdir / "wal")]
        if spans is None:
            self.command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = Path(__file__).with_name("traced_serve.py")
            self.command = [sys.executable, str(launcher), str(spans), *serve]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_TMPDIR=str(tmp),
                        TMPDIR=str(tmp))
        self.cwd = str(root)
        self.process: "subprocess.Popen | None" = None
        self.output: list[str] = []
        self._drain: "threading.Thread | None" = None

    def start(self) -> float:
        """Start the server; returns seconds from spawn to ready."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=self.env, cwd=self.cwd,
        )
        for line in self.process.stdout:
            self.output.append(line)
            if line.startswith("serving on "):
                self.port = int(line.strip().rsplit(":", 1)[1])
                break
        else:
            self.process.wait()
            raise RuntimeError("server exited before ready:\n" + "".join(self.output))
        ready = time.perf_counter() - started
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        return ready

    def _read_rest(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)

    def stop(self) -> float:
        """SIGTERM, reap, and return the server's peak RSS in MiB."""
        process = self.process
        process.send_signal(signal.SIGTERM)
        try:
            _pid, status, usage = _wait4(process.pid, 60)
        except TimeoutError:
            process.kill()
            _pid, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        self._drain.join(timeout=10)
        process.stdout.close()
        if process.returncode != 0:
            raise RuntimeError(
                f"server exited with {process.returncode}:\n" + "".join(self.output)
            )
        return usage.ru_maxrss / 1024.0


def _wait4(pid: int, timeout: float):
    deadline = time.monotonic() + timeout
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            return reaped, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(pid)
        time.sleep(0.01)
