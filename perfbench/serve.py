"""The serve workloads: ``serve-query`` and ``serve-edit``.

Both drive one ``repro-gateway serve`` subprocess (default configuration,
ephemeral loopback port, store in the run's temporary directory) from a
single client that sends its next request only after the previous answer
arrived (a closed loop with one client).

Set-up, shared by both: start the gateway, ``analyze`` the Table 1
program in AM, and send one cold single-obligation ``check`` query per
Table 1 root.  Then:

- ``serve-query`` (the IDE read path) sends the same queries again, in a
  seeded order; every answer comes from the gateway's query cache.
- ``serve-edit`` (the save-and-check write path) makes a seeded, unique,
  behaviour-preserving edit to one procedure, sends ``analyze``
  (incremental AM over the dirty cone) and then a cold ``check`` query
  on the edited procedure.
"""

from __future__ import annotations

import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.client import ServiceClient

PROGRAM_ID = "table1"
START_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 170.0
HASH_SAMPLES = 2  # serve-edit steps re-derived from scratch after the run


class Gateway:
    """One gateway subprocess, started through ``launcher.py``."""

    def __init__(self, run_dir: str, trace: bool, tag: str):
        self.run_dir = os.path.join(run_dir, tag)
        self.trace_dir = os.path.join(self.run_dir, "trace")
        os.makedirs(self.run_dir)
        self.window = 0
        cmd = [
            sys.executable,
            os.path.join("perfbench", "launcher.py"),
            self.run_dir,
            "1" if trace else "0",
            "--",
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--store",
            os.path.join(self.run_dir, "store"),
        ]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        self.client: Optional[ServiceClient] = None
        try:
            line = self._first_line()
            match = re.search(r"\('([0-9.]+)', (\d+)\)", line)
            if match is None:
                raise RuntimeError(f"gateway did not report its port: {line!r}")
            self.client = ServiceClient.connect_tcp(
                match.group(1), int(match.group(2)), timeout=REQUEST_TIMEOUT_S
            )
        except BaseException:
            self.kill()
            raise

    def _first_line(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        data = b""
        while b"\n" not in data:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("gateway did not start")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("gateway exited before listening")
                data += chunk
        return data.decode("utf-8", "replace").splitlines()[0]

    def stop(self) -> None:
        """``shutdown`` verb, wait for the process to end, drop its store."""
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
            self.proc.wait(timeout=60)
        except Exception:
            self.kill()
        finally:
            self.proc.stdout.close()
            shutil.rmtree(self.run_dir, ignore_errors=True)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.client is not None:
            self.client.close()

    # -- traced windows -----------------------------------------------------------

    def _signal_and_wait(self, signum: int, path: str) -> None:
        os.kill(self.proc.pid, signum)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError(f"gateway never wrote {path}")
            time.sleep(0.005)

    def begin_window(self) -> None:
        self.window += 1
        self._signal_and_wait(
            signal.SIGUSR1, os.path.join(self.trace_dir, f"begin-{self.window}")
        )

    def end_window(self) -> List[Dict[str, object]]:
        """The gateway's and its pool workers' aggregates for the window."""
        import json

        path = os.path.join(self.trace_dir, f"gateway-{self.window}.json")
        self._signal_and_wait(signal.SIGUSR2, path)
        snaps = []
        for name in sorted(os.listdir(self.trace_dir)):
            if name == f"gateway-{self.window}.json" or name.startswith(
                f"child-{self.window}-"
            ) and name.endswith(".json"):
                with open(os.path.join(self.trace_dir, name), encoding="utf-8") as fh:
                    snaps.append(json.load(fh))
        return snaps


# -- the edit script ----------------------------------------------------------------


def apply_edit(source: str, proc: str, script: Dict[str, str], tag: str, value: int) -> str:
    """Insert a local at the top of ``proc`` and assign it at the end: a
    behaviour-preserving edit that changes the procedure's body hash."""
    at = source.index(f"proc {proc}(")
    open_brace = source.index("{", at)
    depth = 0
    for close_brace in range(open_brace, len(source)):
        depth += {"{": 1, "}": -1}.get(source[close_brace], 0)
        if depth == 0:
            break
    local = script["local"].format(tag=tag)
    assign = script["assign"].format(tag=tag, value=value)
    return (
        source[: open_brace + 1]
        + f" {local}"
        + source[open_brace + 1 : close_brace]
        + f"  {assign}\n"
        + source[close_brace:]
    )


# -- the workloads ------------------------------------------------------------------


class Serve:
    """Client side of one serve run: requests, latencies, checks."""

    def __init__(self, gateway: Gateway, source: str, roots: List[str], seed: int):
        self.client = gateway.client
        self.source = source
        self.roots = roots
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: List[Tuple[float, float, float]] = []  # (start, end, latency)
        self.exec_s: List[float] = []
        self.queue_wait_s: List[float] = []
        self.failed: List[str] = []
        self.cold: Dict[str, Dict[str, object]] = {}
        self.answers: List[Tuple[str, Dict[str, object]]] = []
        self.steps: List[Tuple[str, str, Dict[str, object], Dict[str, object]]] = []
        self.edits: Dict[str, Tuple[str, int]] = {}

    def _timed(self, send: Callable[[], Dict[str, object]], between: Callable[[], None]):
        between()
        start = time.perf_counter()
        response = send()
        end = time.perf_counter()
        self.ops.append((start, end, end - start))
        telemetry = response.get("telemetry") or {}
        self.exec_s.append(float(telemetry.get("exec_s", 0.0)))
        self.queue_wait_s.append(float(telemetry.get("queue_wait_s", 0.0)))
        if not response.get("ok"):
            self.failed.append(f"{response.get('verb')}: {response.get('error')}")
        return response

    def _query(self, source: str, proc: str) -> Dict[str, object]:
        return self.client.check(source, query=f"{proc}:0", program_id=PROGRAM_ID)

    def warm_up(self) -> None:
        """The set-up load: one AM analyze and one cold query per root."""
        response = self.client.analyze(self.source, domains=("am",), program_id=PROGRAM_ID)
        if not response.get("ok"):
            raise RuntimeError(f"set-up analyze failed: {response.get('error')}")
        for root in self.roots:
            response = self._query(self.source, root)
            if not response.get("ok") or response["result"]["mode"] != "cold":
                raise RuntimeError(f"set-up query {root} failed: {response}")
            self.cold[root] = response["result"]["query"]

    def query_round(self, between: Callable[[], None]) -> int:
        order = list(self.roots)
        self.rng.shuffle(order)
        for root in order:
            response = self._timed(lambda: self._query(self.source, root), between)
            self.answers.append((root, response))
        return len(order)

    def edit_round(self, targets: List[str], script: Dict[str, str], between) -> int:
        """One save-and-check step per target.  The program keeps the
        latest edit of every procedure, so a step dirties only the cone
        of the procedure it edits."""
        order = list(targets)
        self.rng.shuffle(order)
        for proc in order:
            self.edits[proc] = (f"{self.seed}_{len(self.steps)}", self.rng.randint(1, 999))
            edited = self.source
            for name, (tag, value) in sorted(self.edits.items()):
                edited = apply_edit(edited, name, script, tag, value)
            analyzed = self._timed(
                lambda: self.client.analyze(edited, domains=("am",), program_id=PROGRAM_ID),
                between,
            )
            answered = self._timed(lambda: self._query(edited, proc), between)
            self.steps.append((edited, proc, analyzed, answered))
        return 2 * len(order)

    # -- checks (outside the timed phase) -------------------------------------------

    def check_queries(self) -> List[str]:
        from repro import Analyzer
        from repro.checker.findings import UNSAFE
        from repro.checker.safety import SafetyOptions, check_safety

        wrong = []
        report = check_safety(
            Analyzer.from_source(self.source),
            SafetyOptions(domain="am", procs=list(self.roots)),
        )
        exhaustive = {
            root: _aggregate([s.verdict for s in report.sites if s.proc == root])
            for root in self.roots
        }
        for root, cold in self.cold.items():
            if cold["verdict"] == UNSAFE:
                wrong.append(f"{root}: Table 1 procedure reported unsafe")
            if cold["verdict"] != exhaustive[root]:
                wrong.append(
                    f"{root}: query verdict {cold['verdict']} but the exhaustive "
                    f"sweep gives {exhaustive[root]}"
                )
        for root, response in self.answers:
            if not response.get("ok"):
                continue  # already counted as failed
            result = response["result"]
            if result["mode"] != "warm" or result["query"] != self.cold[root]:
                wrong.append(f"{root}: warm answer differs from the cold answer")
        return wrong

    def check_edits(self) -> List[str]:
        from repro import Analyzer
        from repro.checker.findings import UNSAFE
        from repro.checker.safety import Query, SafetyOptions, answer_query

        wrong = []
        for edited, proc, analyzed, answered in self.steps:
            if answered.get("ok") and answered["result"]["query"]["verdict"] == UNSAFE:
                wrong.append(f"{proc}: edited procedure reported unsafe")
        done = [i for i, step in enumerate(self.steps) if step[2].get("ok") and step[3].get("ok")]
        sample = random.Random(f"{self.seed}/sample").sample(done, min(HASH_SAMPLES, len(done)))
        for i in sorted(sample):
            edited, proc, analyzed, answered = self.steps[i]
            analyzer = Analyzer.from_source(edited)
            batch = analyzer.analyze_batch(domains=("am",), jobs=0)
            scratch = {
                outcome.task_id: [list(pair) for pair in outcome.result.summary_hashes]
                for outcome in batch.outcomes
            }
            served = {
                task: [list(pair) for pair in pairs]
                for task, pairs in analyzed["result"]["summary_hashes"].items()
            }
            if served != scratch:
                wrong.append(f"step {i} ({proc}): summary hashes differ from a from-scratch analysis")
            fresh = answer_query(analyzer, Query(proc=proc), SafetyOptions(domain="am"))
            if fresh.verdict != answered["result"]["query"]["verdict"]:
                wrong.append(
                    f"step {i} ({proc}): verdict {answered['result']['query']['verdict']} "
                    f"but a from-scratch query gives {fresh.verdict}"
                )
        return wrong


def _aggregate(verdicts: List[str]) -> Optional[str]:
    """A procedure's verdict over its sites, as a whole-procedure query
    aggregates it: unsafe beats unknown beats safe."""
    from repro.checker.findings import SAFE, UNKNOWN, UNSAFE

    for verdict in (UNSAFE, UNKNOWN, SAFE):
        if verdict in verdicts:
            return verdict
    return None
