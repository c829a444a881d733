"""The ``table1-cold`` workload: the paper's Table 1 analyzed from cold.

Each row is one ``(procedure, domain)`` analysis from a fresh
:class:`repro.Analyzer` with the numeric memos cleared, the way a batch
or CLI user pays for it.  The timed phase only analyzes; every check
below runs afterwards on the results the timed phase produced.

Checks, all computed apart from the analyzer's own output:

- no row ends with an engine diagnostic (budget) or an exception;
- rows with a published column-6 formula entail it (:data:`PAPER_AM`,
  :data:`PAPER_AU`);
- seeded concrete runs of every row (``repro.concrete``) lie in γ of
  the row's summary;
- the DLL rows prove ``safety.dll-consistent``.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro import Analyzer
from repro.checker.findings import SAFE
from repro.checker.safety import SafetyOptions, check_safety
from repro.concrete.interp import Interpreter
from repro.datawords import terms as T
from repro.datawords.multiset import MultisetDomain
from repro.datawords.patterns import GuardInstance
from repro.fuzz.oracle import Oracle, OracleConfig
from repro.numeric import polyhedra, simplex
from repro.numeric.linexpr import Constraint, LinExpr
from repro.shape.graph import NULL

# AU rows that finish in seconds; the rest of the AU column is left out
# (README.md lists them with their measured times).
AU_ROWS = ["create", "addfst", "delfst", "addlst", "dellst", "init", "initSeq", "mapadd"]
DLL_AM_ROWS = [
    "dll_insert_front",
    "dll_insert_sorted",
    "dll_delete_front",
    "dll_reverse",
    "dll_traverse_back",
]
DLL_AU_ROWS = ["dll_insert_front", "dll_delete_front"]
CONCRETE_RUNS = 4  # seeded concrete executions per row for the γ check


def rows(table1_names: List[str]) -> List[Tuple[str, str, str]]:
    """``(program, procedure, domain)`` for every row of the workload."""
    out = [("table1", name, "am") for name in table1_names]
    out += [("table1", name, "au") for name in AU_ROWS]
    out += [("dll", name, "am") for name in DLL_AM_ROWS]
    out += [("dll", name, "au") for name in DLL_AU_ROWS]
    return out


# -- the paper's column-6 formulas ----------------------------------------------


def _first_list(params) -> Optional[str]:
    return next((p.name for p in params if p.type == "list"), None)


def _heaps(analyzer, proc, result):
    cfg = analyzer.icfg.cfg(proc)
    in_var, out_var = _first_list(cfg.inputs), _first_list(cfg.outputs)
    for _, summary in result.summaries:
        for heap in summary:
            labels = heap.graph.labels
            n_in = labels.get(T.entry_copy(in_var), NULL) if in_var else NULL
            n_out = labels.get(out_var, NULL) if out_var else NULL
            yield heap, n_in, n_out


def _v(name: str) -> LinExpr:
    return LinExpr.var(name)


def ms_preserved(analyzer, proc, result) -> bool:
    """ms(input0) = ms(output) wherever both lists are non-empty."""
    domain = MultisetDomain()
    seen = False
    for heap, n_in, n_out in _heaps(analyzer, proc, result):
        if n_in == NULL or n_out == NULL:
            continue
        seen = True
        row = {
            T.mhd(n_in): Fraction(1),
            T.mtl(n_in): Fraction(1),
            T.mhd(n_out): Fraction(-1),
            T.mtl(n_out): Fraction(-1),
        }
        if not domain.entails_row(heap.value, row):
            return False
    return seen


def len_preserved(analyzer, proc, result) -> bool:
    """len(input0) = len(output)."""
    seen = False
    for heap, n_in, n_out in _heaps(analyzer, proc, result):
        if n_in == NULL or n_out == NULL:
            continue
        seen = True
        if not heap.value.E.entails(
            Constraint.eq(_v(T.length(n_in)), _v(T.length(n_out)))
        ):
            return False
    return seen


def all_equal(value: Callable[[], LinExpr]):
    """hd(out) = c and ∀y. out[y] = c, for a constant or an input."""

    def check(analyzer, proc, result) -> bool:
        seen = False
        for heap, _, n_out in _heaps(analyzer, proc, result):
            if n_out == NULL:
                continue
            seen = True
            target = value()
            if not heap.value.E.entails(Constraint.eq(_v(T.hd(n_out)), target)):
                return False
            guard = GuardInstance("ALL1", (n_out,))
            ctx = heap.value.E.meet(guard.guard_poly())
            if ctx.is_bottom():
                continue
            body = heap.value.clauses.get(guard)
            if body is None or not ctx.meet(body).entails(
                Constraint.eq(_v(T.elem(n_out, "y1")), target)
            ):
                return False
        return seen

    return check


PAPER_AM: Dict[str, Callable] = {
    name: ms_preserved
    for name in ("clone", "bubblesort", "insertsort", "quicksort", "mergesort")
}
PAPER_AU: Dict[str, Callable] = {
    "create": all_equal(lambda: LinExpr.const_expr(0)),
    "init": all_equal(lambda: _v(T.entry_copy("v"))),
    "mapadd": len_preserved,
}


# -- the workload -----------------------------------------------------------------


class Table1Cold:
    def __init__(self, programs, table1_names: List[str], clock=time.perf_counter):
        self.programs = programs
        self.clock = clock
        self.rows = rows(table1_names)
        self.rounds = 0
        # (round, row) keys: a row that fails in two rounds is two failures.
        self.results: List[Tuple[Tuple[int, Tuple[str, str, str]], Analyzer, object]] = []
        self.failed: Dict[Tuple[int, Tuple[str, str, str]], str] = {}
        # (start, end, seconds) per row; the clock skips calibration time
        self.ops: List[Tuple[float, float, float]] = []
        self.memo = {"lp_hits": 0, "lp_misses": 0, "join_hits": 0, "join_misses": 0}

    def round(self) -> int:
        """One pass over every row, in Table 1 order; returns rows run.

        The order is fixed because rows share the memos that
        ``clear_caches`` leaves alone (shape canonicalization, constraint
        directions): a seeded order would move a row's time with the seed.
        """
        self.rounds += 1
        for row in self.rows:
            program, proc, domain = row
            key = (self.rounds, row)
            simplex.clear_caches()
            polyhedra.clear_caches()
            analyzer = Analyzer(self.programs[program])
            # No row pays for the garbage of the one before, nor for
            # traversing the results the benchmark keeps for its checks.
            gc.collect()
            gc.freeze()
            began, start = time.perf_counter(), self.clock()
            try:
                result = analyzer.analyze(proc, domain=domain)
            except Exception as exc:  # a crash is a failed row, not a dead run
                self.ops.append((began, time.perf_counter(), self.clock() - start))
                self.failed[key] = f"{type(exc).__name__}: {exc}"
                continue
            self.ops.append((began, time.perf_counter(), self.clock() - start))
            self._read_memos()
            if result.diagnostics:
                self.failed[key] = "; ".join(str(d) for d in result.diagnostics)
            self.results.append((key, analyzer, result))
        return len(self.rows)

    def _read_memos(self) -> None:
        lp, join = simplex.cache_stats(), polyhedra.cache_stats()
        self.memo["lp_hits"] += lp["solve_hits"]
        self.memo["lp_misses"] += lp["solve_misses"]
        self.memo["join_hits"] += join["join_hits"]
        self.memo["join_misses"] += join["join_misses"]

    def engine_counts(self) -> Dict[str, float]:
        out = {"steps": 0, "records": 0, "widenings": 0, "cache_hits": 0, "cache_lookups": 0}
        for _, _, result in self.results:
            stats = result.stats
            out["steps"] += stats.get("steps", 0)
            out["records"] += stats.get("records", 0)
            out["widenings"] += sum(
                v for k, v in stats.items() if k.startswith("widenings.")
            )
            cache = stats.get("cache") or {}
            out["cache_hits"] += cache.get("hits", 0)
            out["cache_lookups"] += cache.get("hits", 0) + cache.get("misses", 0)
        return out

    # -- checks (outside the timed phase) -----------------------------------------

    def check(self, seed: int) -> List[str]:
        """Wrong answers found; their rows also count as failed."""
        wrong: List[str] = []
        oracle = Oracle(OracleConfig(rounds=CONCRETE_RUNS))
        for key, analyzer, result in self.results:
            if key not in self.failed:
                why = self._check_row(oracle, analyzer, key[1], result, seed)
                if why:
                    self.failed[key] = why
                    wrong.append(f"{key[1][1]}/{key[1][2]}: {why}")
        return wrong

    def _check_row(self, oracle, analyzer, row, result, seed) -> Optional[str]:
        program, proc, domain = row
        paper = (PAPER_AM if domain == "am" else PAPER_AU).get(proc)
        if program == "table1" and paper is not None:
            if not paper(analyzer, proc, result):
                return "summary does not entail the paper's column-6 formula"
        cfg = analyzer.icfg.cfg(proc)
        interp = Interpreter(analyzer.icfg, max_steps=oracle.config.max_interp_steps)
        rng = random.Random(f"{seed}/{proc}/{domain}")
        for _ in range(oracle.config.rounds):
            views = oracle.random_input_views(rng, cfg)
            obs = oracle._observe(interp, cfg, proc, views, dll=program == "dll")
            if obs is None:
                continue  # the concrete run itself is out of scope
            findings = oracle._gamma_check(result, proc, domain, obs, "", seed, [])
            if findings:
                return f"concrete run outside γ of the summary: {findings[0].message}"
        if program == "dll":
            report = check_safety(
                analyzer, SafetyOptions(domain=domain, procs=[proc])
            )
            verdict = report.dll_consistent_verdict(proc)
            if verdict != SAFE:
                return f"safety.dll-consistent is {verdict}, expected safe"
        return None
