"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 12 --trace 0

Workloads (README.md says why each was chosen):

- ``table1-cold``: the paper's Table 1 analyzed from cold, in process;
- ``serve-query``: warm single-obligation ``check`` queries against a
  ``repro-gateway serve`` subprocess;
- ``serve-edit``: edit one procedure, ``analyze``, ``check`` it, against
  the same gateway.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured without tracing; with
``--trace 1`` they are the per-layer ones of ``spans.py``, plus
``bench.trace_overhead_s`` (traced minus untraced ``work_s`` of this run).
Diagnostics go to standard error.  A wrong answer, an input that does
not match its pinned digest, or a span the workload should exercise
that recorded no call makes the run fail.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-cold", "serve-query", "serve-edit")

# sha256 of the inputs each workload feeds; a change to the program's
# Table 1 source, the DLL suite or the edit script changes the workload.
PINNED = {
    "table1_source": "adc355d53c9fd5d4142f86394529b3838708f420590c370bee6f4f7d757a34c6",
    "table1_roots": "fb5a51ebf90534da3bcf2b15929237a7d28c470ad72b90e947273ef40c40f4f3",
    "dll_source": "9d5f56de3839a51013feb24b55a1ef65c0dddd5f6c3f7879bb03533ba901854d",
    "edit_script": "91348403c0ac93d2a7ec9f514b5936742c34420055a614da7d5d7505ebdcc6ff",
}

# Mean duration of one calibration kernel on the reference machine (the
# 2-CPU machine README.md describes).  A normalized operation time is its
# raw time scaled by CALIB_REF_MS / the mean kernel time around it.
CALIB_REF_MS = 0.60
SETUP_REPEATS = 3
MIN_REQUESTS = 100  # serve runs: enough samples for a p90 with ten beyond it
CALIB_TIMER_S = 0.05  # table1-cold: one kernel every 50 ms of analysis
CALIB_WINDOW_S = 1.0  # samples this close to an operation calibrate it


# -- calibration --------------------------------------------------------------------


def calib_kernel() -> int:
    """A fixed pure-Python load: dict updates, integer gcds, a sort."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(1, 1500):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + (i * i) % 97
        acc += math.gcd(i, 360360)
    return acc + sum(sorted(table.values())[:10])


class Calibrator:
    """Times :func:`calib_kernel` between (or, on a timer, inside) the
    operations, so a run knows how fast the machine was while it ran."""

    def __init__(self) -> None:
        self.times: List[float] = []  # midpoints, ascending
        self.samples: List[float] = []
        self.total_s = 0.0

    def sample(self, *_ignored) -> None:
        start = time.perf_counter()
        calib_kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.samples.append(end - start)
        self.total_s += end - start

    def work_clock(self) -> float:
        """``perf_counter`` minus the time spent in the kernel so far."""
        return time.perf_counter() - self.total_s

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_TIMER_S, CALIB_TIMER_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def mean_ms(self) -> float:
        return 1000.0 * statistics.fmean(self.samples)

    def normalized(self, start: float, end: float, raw_s: float) -> float:
        """``raw_s`` of an operation that ran from ``start`` to ``end``,
        scaled to the reference machine speed by the kernel samples taken
        within CALIB_WINDOW_S of it."""
        lo = bisect.bisect_left(self.times, start - CALIB_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIB_WINDOW_S)
        local = self.samples[lo:hi] or self.samples
        return raw_s * CALIB_REF_MS / (1000.0 * statistics.fmean(local))


# -- inputs --------------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_inputs() -> Dict[str, object]:
    """The pinned inputs; exits when one differs from its digest."""
    from repro.lang.benchlib import BENCHMARK_SOURCE, TABLE1

    with open(os.path.join(HERE, "inputs", "dll.lisl"), encoding="utf-8") as fh:
        dll_source = fh.read()
    with open(os.path.join(HERE, "inputs", "edits.json"), encoding="utf-8") as fh:
        edit_text = fh.read()
    roots = [entry.name for entry in TABLE1]
    actual = {
        "table1_source": _digest(BENCHMARK_SOURCE),
        "table1_roots": _digest(",".join(roots)),
        "dll_source": _digest(dll_source),
        "edit_script": _digest(edit_text),
    }
    changed = [name for name, value in actual.items() if PINNED[name] != value]
    if changed:
        for name in changed:
            print(f"input {name} changed: sha256 {actual[name]}, pinned {PINNED[name]}",
                  file=sys.stderr)
        raise SystemExit(3)
    return {
        "table1_source": BENCHMARK_SOURCE,
        "roots": roots,
        "dll_source": dll_source,
        "edits": json.loads(edit_text),
    }


def parse(source: str):
    from repro.lang.normalize import normalize_program
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import typecheck_program

    return normalize_program(typecheck_program(parse_program(source)))


def warm_up(inputs) -> None:
    """What a CLI user's first analysis pays besides the analysis."""
    from repro import Analyzer

    for source, proc, domain in (
        (inputs["table1_source"], "addfst", "am"),
        (inputs["table1_source"], "delfst", "au"),
        (inputs["dll_source"], "dll_insert_front", "am"),
    ):
        Analyzer.from_source(source).analyze(proc, domain=domain)


def setup_probe_s(workload: str) -> float:
    """Wall time of one fresh process doing imports and warm-up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", "--workload", workload],
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


# -- percentiles and metrics -----------------------------------------------------------


def percentile(values: List[float], q: int) -> float:
    """The Harrell-Davis estimate of the ``q``-th percentile: a weighted
    mean of all order statistics, with Beta(q(n+1), (1-q)(n+1)) weights.
    Interpolating between two samples moves with the noise of those two;
    with 36 to 144 samples of very uneven sizes this estimate is far
    steadier."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def timed_rounds(seconds: float, run_round: Callable[[], int], min_ops: int = 0) -> tuple:
    """Whole rounds until ``seconds`` have passed and at least ``min_ops``
    operations ran; returns (wall_s, rounds, ops)."""
    start = time.perf_counter()
    rounds = ops = 0
    while True:
        ops += run_round()
        rounds += 1
        if time.perf_counter() - start >= seconds and ops >= min_ops:
            return time.perf_counter() - start, rounds, ops


# -- workloads ------------------------------------------------------------------------


def run_table1(args, inputs, run_dir, tracer, reference=False) -> Dict[str, object]:
    """``reference``: the untraced pass of a traced run, kept only for
    its ``work_s``, so it skips the set-up probes and the checks."""
    from table1 import Table1Cold

    setups = [0.0] if reference else [
        setup_probe_s(args.workload) for _ in range(SETUP_REPEATS)
    ]
    warm_up(inputs)
    programs = {"table1": parse(inputs["table1_source"]), "dll": parse(inputs["dll_source"])}
    calib = Calibrator()
    work = Table1Cold(programs, inputs["roots"], clock=calib.work_clock)
    calib.sample()
    if tracer is not None:
        tracer.reset()
    calib.start_timer()
    try:
        wall, rounds, ops = timed_rounds(args.seconds, work.round)
    finally:
        calib.stop_timer()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    snaps = [tracer.snapshot()] if tracer is not None else []
    work_s = (wall - calib.total_s) / rounds
    wrong = [] if reference else work.check(args.seed)
    counts = work.engine_counts()
    extra = {
        "engine.steps": counts["steps"] / rounds,
        "engine.records": counts["records"] / rounds,
        "engine.widenings": counts["widenings"] / rounds,
        "engine.summary_cache_hit_ratio": _ratio(counts["cache_hits"], counts["cache_lookups"]),
        "numeric.lp_memo_hit_ratio": _ratio(
            work.memo["lp_hits"], work.memo["lp_hits"] + work.memo["lp_misses"]
        ),
        "numeric.join_memo_hit_ratio": _ratio(
            work.memo["join_hits"], work.memo["join_hits"] + work.memo["join_misses"]
        ),
    }
    return {
        "workload": args.workload,
        "attempted": ops,
        "failed": len(work.failed),
        "wrong": wrong,
        "failures": sorted(set(work.failed.values())),
        "rounds": rounds,
        "requests": 0,
        "setup_s": statistics.median(setups),
        "work_s": work_s,
        "wall_s": wall,
        "calib": calib,
        "ops": work.ops,
        "peak_rss_mb": peak_mb,
        "snaps": snaps,
        "extra": extra,
    }


def run_serve(args, inputs, run_dir, tracer, reference=False) -> Dict[str, object]:
    from serve import Gateway, Serve

    trace = tracer is not None
    starts = []
    for i in range(0 if reference else SETUP_REPEATS - 1):
        start = time.perf_counter()
        probe = Gateway(run_dir, trace=False, tag=f"probe-{i}")
        probe.client.ping()
        probe.stop()
        starts.append(time.perf_counter() - start)
    start = time.perf_counter()
    gateway = Gateway(run_dir, trace=trace, tag="traced" if trace else "gateway")
    try:
        gateway.client.ping()
        starts.append(time.perf_counter() - start)
        work = Serve(gateway, inputs["table1_source"], inputs["roots"], args.seed)
        begin = time.perf_counter()
        work.warm_up()
        setup_s = statistics.median(starts) + time.perf_counter() - begin
        calib = Calibrator()
        if trace:
            gateway.begin_window()
        if args.workload == "serve-query":
            run_round = lambda: work.query_round(calib.sample)  # noqa: E731
        else:
            run_round = lambda: work.edit_round(  # noqa: E731
                inputs["edits"]["targets"], inputs["edits"], calib.sample
            )
        wall, rounds, ops = timed_rounds(args.seconds, run_round, MIN_REQUESTS)
        snaps = gateway.end_window() if trace else []
    finally:
        gateway.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if reference:
        wrong = []
    elif args.workload == "serve-query":
        wrong = work.check_queries()
    else:
        wrong = work.check_edits()
    transport_ms = [1000.0 * (op[2] - e) for op, e in zip(work.ops, work.exec_s)]
    extra = {
        "gateway.queue_wait_ms": 1000.0 * statistics.fmean(work.queue_wait_s),
        "gateway.exec_ms": 1000.0 * statistics.fmean(work.exec_s),
        "gateway.transport_ms": statistics.fmean(transport_ms),
    }
    return {
        "workload": args.workload,
        "attempted": ops,
        "failed": len(work.failed) + len(wrong),  # each wrong answer is one
        "wrong": wrong,
        "failures": sorted(set(work.failed)),
        "rounds": rounds,
        "requests": ops,
        "setup_s": setup_s,
        "work_s": (wall - calib.total_s) / rounds,
        "wall_s": wall,
        "calib": calib,
        "ops": work.ops,
        "peak_rss_mb": peak_mb,
        "snaps": snaps,
        "extra": extra,
    }


def _ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


# -- reporting --------------------------------------------------------------------------

# Span names a workload must exercise (a zero call count fails the
# traced run): the layers README.md assigns to it.
EXPECTED_SPANS = {
    "table1-cold": [
        "numeric.lp", "numeric.join", "numeric.project", "numeric.minimize",
        "numeric.entails", "datawords.universal", "datawords.reinterp",
        "shape.canon", "shape.fold", "core.post", "core.callret",
        "engine.fixpoint",
    ],
    "serve-query": ["lang.parse", "lang.icfg", "service.index", "service.query_cache"],
    "serve-edit": [
        "lang.parse", "service.query_cache", "service.session", "parallel.pool",
        "parallel.task", "parallel.store", "core.cone", "checker.discharge",
        "numeric.rref", "datawords.multiset",
    ],
}


def op_times_ms(out, normalize: bool) -> List[float]:
    """Per-operation times (rows; requests), raw or normalized."""
    if not normalize:
        return [1000.0 * raw for _, _, raw in out["ops"]]
    return [1000.0 * out["calib"].normalized(*op) for op in out["ops"]]


def end_to_end(out, normalize: bool) -> Dict[str, Dict[str, object]]:
    ops_ms = op_times_ms(out, normalize)
    work_s = sum(ops_ms) / 1000.0 / out["rounds"] if normalize else out["work_s"]
    # Set-up runs before the timed phase, mostly in other processes; the
    # run's mean kernel time is the best estimate of the machine's speed.
    setup_scale = CALIB_REF_MS / out["calib"].mean_ms if normalize else 1.0
    return {
        "setup_s": metric(out["setup_s"] * setup_scale, "s"),
        "work_s": metric(work_s, "s"),
        "p50_ms": metric(percentile(ops_ms, 50), "ms"),
        "p90_ms": metric(percentile(ops_ms, 90), "ms"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
    }


def normalized_work_s(out) -> float:
    return sum(op_times_ms(out, True)) / 1000.0 / out["rounds"]


def per_layer(out, untraced) -> tuple:
    """Per-layer metrics of a traced pass, and the spans it should have
    exercised but did not.  ``untraced`` is the run's reference pass."""
    import spans

    merged = spans.merge(out["snaps"])
    span = merged["spans"]
    counters = merged["counters"]
    requests = out["requests"]

    def self_s(name: str) -> float:
        return span[name][2]

    def per_request_ms(name: str) -> float:
        return 1000.0 * self_s(name) / requests if requests else 0.0

    # A pool task's time is the worker's, not the pool's: subtract it.
    pool_s = span["parallel.pool"][1] - span["parallel.task"][1]
    extra = out["extra"]
    metrics = {
        "lang.parse_ms": metric(per_request_ms("lang.parse"), "ms"),
        "lang.icfg_ms": metric(per_request_ms("lang.icfg"), "ms"),
        "service.index_ms": metric(per_request_ms("service.index"), "ms"),
        "gateway.queue_wait_ms": metric(extra.get("gateway.queue_wait_ms", 0.0), "ms"),
        "gateway.exec_ms": metric(extra.get("gateway.exec_ms", 0.0), "ms"),
        "gateway.transport_ms": metric(extra.get("gateway.transport_ms", 0.0), "ms"),
        "service.query_hit_ratio": metric(
            _ratio(counters.get("service.query_hits", 0), counters.get("service.query_lookups", 0)),
            "ratio",
        ),
        "service.session_analyzed": metric(counters.get("service.session_analyzed", 0), "count"),
        "service.session_reused": metric(counters.get("service.session_reused", 0), "count"),
        "parallel.pool_ms": metric(1000.0 * pool_s / requests if requests else 0.0, "ms"),
        "parallel.store_s": metric(self_s("parallel.store"), "s"),
        "core.cone_procs": metric(counters.get("core.cone_procs", 0), "count"),
        "checker.discharge_ms": metric(per_request_ms("checker.discharge"), "ms"),
        "numeric.rref_s": metric(self_s("numeric.rref"), "s"),
        "datawords.multiset_s": metric(self_s("datawords.multiset"), "s"),
        "numeric.lp_calls": metric(span["numeric.lp"][0], "count"),
        "numeric.lp_s": metric(self_s("numeric.lp"), "s"),
        "numeric.lp_memo_hit_ratio": metric(extra.get("numeric.lp_memo_hit_ratio", 0.0), "ratio"),
        "numeric.join_calls": metric(span["numeric.join"][0], "count"),
        "numeric.join_s": metric(self_s("numeric.join"), "s"),
        "numeric.join_memo_hit_ratio": metric(extra.get("numeric.join_memo_hit_ratio", 0.0), "ratio"),
        "numeric.project_s": metric(self_s("numeric.project"), "s"),
        "numeric.minimize_s": metric(self_s("numeric.minimize"), "s"),
        "numeric.entails_s": metric(self_s("numeric.entails"), "s"),
        "datawords.universal_s": metric(self_s("datawords.universal"), "s"),
        "datawords.reinterp_s": metric(self_s("datawords.reinterp"), "s"),
        "shape.canon_s": metric(self_s("shape.canon"), "s"),
        "shape.fold_s": metric(self_s("shape.fold"), "s"),
        "core.post_s": metric(self_s("core.post"), "s"),
        "core.callret_s": metric(self_s("core.callret"), "s"),
        "engine.fixpoint_s": metric(self_s("engine.fixpoint"), "s"),
        "engine.steps": metric(extra.get("engine.steps", 0), "count"),
        "engine.records": metric(extra.get("engine.records", 0), "count"),
        "engine.widenings": metric(extra.get("engine.widenings", 0), "count"),
        "engine.summary_cache_hit_ratio": metric(
            extra.get("engine.summary_cache_hit_ratio", 0.0), "ratio"
        ),
        "bench.wall_s": metric(out["wall_s"], "s"),
        "bench.calib_ms": metric(out["calib"].mean_ms, "ms"),
    }
    metrics["bench.trace_overhead_s"] = metric(
        normalized_work_s(out) - normalized_work_s(untraced), "s"
    )
    missing = spans.missing_spans(merged, EXPECTED_SPANS[out["workload"]])
    return metrics, missing


# -- process hygiene ------------------------------------------------------------------------


def make_run_dir(root: str) -> str:
    """``.perfbench/run-<pid>`` in the checkout; stale ones of dead runs go."""
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    for name in os.listdir(base):
        pid = name.rpartition("-")[2]
        if name.startswith("run-") and pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    path = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(path)
    return path


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _on_term(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


# -- main ------------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    inputs = load_inputs()
    if args.setup_probe:
        warm_up(inputs)
        return 0

    signal.signal(signal.SIGTERM, _on_term)
    run_dir = make_run_dir(root)
    runner = run_table1 if args.workload == "table1-cold" else run_serve
    try:
        if args.trace:
            import spans

            untraced = runner(args, inputs, run_dir, None, reference=True)
            tracer = spans.Tracer()
            spans.import_all()
            spans.install(tracer)
            out = runner(args, inputs, run_dir, tracer)
            metrics, missing = per_layer(out, untraced)
            out["wrong"] += [f"span {name} recorded no call" for name in missing]
        else:
            out = runner(args, inputs, run_dir, None)
            metrics = end_to_end(out, True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in out["wrong"]:
        print(f"WRONG: {line}", file=sys.stderr)
    for line in out["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    raw, norm = end_to_end(out, False), end_to_end(out, True)
    print(
        f"{args.workload}: rounds={out['rounds']} ops={out['attempted']} "
        f"wall={out['wall_s']:.2f}s calib={out['calib'].mean_ms:.4f}ms "
        + " ".join(
            f"{name} raw={raw[name]['value']:.4f} normalized={norm[name]['value']:.4f}"
            for name in ("setup_s", "work_s", "p50_ms", "p90_ms")
        ),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not out["wrong"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
