"""Start ``repro-gateway serve`` for the serve workloads.

Usage (from the checkout root)::

    python3 perfbench/launcher.py RUN_DIR TRACE(0|1) -- <repro-gateway args>

The gateway runs exactly as ``repro-gateway`` would.  The launcher only
adds what the benchmark needs around it:

- it dies with the benchmark: the kernel sends SIGTERM when the parent
  process ends, and SIGTERM kills the gateway's pool workers, removes
  RUN_DIR and exits, so an interrupted run leaves nothing behind;
- with TRACE=1 it installs the span wrappers of ``spans.py`` before the
  gateway starts.  SIGUSR1 opens a measurement window (aggregates reset)
  and writes ``RUN_DIR/trace/begin-<n>``; SIGUSR2 writes the gateway's
  aggregates to ``RUN_DIR/trace/gateway-<n>.json``.  Forked pool workers
  write ``child-<n>-<pid>.json`` when their task ends, ``<n>`` being the
  window open when they were forked.
"""

import ctypes
import os
import shutil
import signal
import sys

_PR_SET_PDEATHSIG = 1


def _set_death_signal(signum: int) -> None:
    """Have the kernel send ``signum`` when this process's parent ends."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signum)


def _die_with_parent(run_dir: str) -> None:
    """SIGTERM, or the end of the benchmark, stops the gateway at once:
    no new pool worker starts, running ones are killed, RUN_DIR goes."""
    import multiprocessing
    import threading

    from repro.parallel import pool

    launcher_pid = os.getpid()
    stopping = threading.Event()

    def on_term(signum, frame):
        if os.getpid() != launcher_pid:  # a pool worker the pool terminates
            os._exit(128 + signum)
        stopping.set()
        for child in multiprocessing.active_children():
            child.kill()
            child.join(5)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))  # the benchmark's, once empty
        except OSError:
            pass
        os._exit(128 + signum)

    start_worker = pool.WorkerPool._start
    worker_main = pool._worker_main

    def guarded_start(self, task, attempt):
        if stopping.is_set():
            raise RuntimeError("gateway launcher is stopping")
        return start_worker(self, task, attempt)

    def guarded_worker_main(*args):
        _set_death_signal(signal.SIGKILL)  # a worker never outlives the gateway
        return worker_main(*args)

    pool.WorkerPool._start = guarded_start
    pool._worker_main = guarded_worker_main
    signal.signal(signal.SIGTERM, on_term)
    _set_death_signal(signal.SIGTERM)
    if os.getppid() == 1:  # the parent ended before the death signal was armed
        on_term(signal.SIGTERM, None)


def _install_tracing(run_dir: str) -> None:
    import spans

    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    tracer = spans.Tracer()
    spans.import_all()
    spans.install(tracer)
    state = {"window": 0}

    from repro.parallel import pool

    traced_worker = pool._worker_main

    def worker_main(*args):
        # Fork copied the gateway's aggregates and, possibly, a held lock.
        import threading

        tracer.lock = threading.Lock()
        tracer.reset()
        try:
            traced_worker(*args)
        finally:
            spans.write_json(
                os.path.join(
                    trace_dir, f"child-{state['window']}-{os.getpid()}.json"
                ),
                tracer.snapshot(),
            )

    pool._worker_main = worker_main

    def begin(signum, frame):
        tracer.reset()
        state["window"] += 1
        with open(os.path.join(trace_dir, f"begin-{state['window']}"), "w"):
            pass

    def end(signum, frame):
        spans.write_json(
            os.path.join(trace_dir, f"gateway-{state['window']}.json"),
            tracer.snapshot(),
        )

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, end)


def main(argv) -> int:
    run_dir, trace, sep, *gateway_args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py RUN_DIR TRACE -- GATEWAY_ARGS")
    _set_death_signal(signal.SIGTERM)  # until on_term below is installed
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if trace == "1":
        _install_tracing(run_dir)
    _die_with_parent(run_dir)
    from repro.gateway.__main__ import main as gateway_main

    return gateway_main(gateway_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
