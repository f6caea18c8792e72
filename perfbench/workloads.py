"""The benchmark's workloads over the seeded synthetic corpus.

Each workload is one closed-loop client: the runner calls ``setup`` a few
times (timed as ``setup_s``), then ``op`` (or ``traced_op`` under
``--trace 1``) back to back for the run's seconds.  An op
raises :class:`verify.CheckFailed` when an output differs from its known
answer.  ``metrics`` gives the end-to-end figures of the untraced run and
``layers`` the per-layer figures of the traced one; a layer a workload
does not exercise reads 0 there.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

from repro.analyses.errcheck import find_error_returning_functions
from repro.blockstop.blocking import derive_blocking
from repro.blockstop.callgraph import build_direct_callgraph
from repro.blockstop.checker import find_irq_handlers
from repro.blockstop.pointsto import FunctionPointerAnalysis, Precision
from repro.dataflow.domains import DEFAULT_DOMAINS, solve_program_facts
from repro.dataflow.interproc import condense_callgraph, solve_summaries
from repro.engine.analyses import ANALYSIS_ORDER, make_registry
from repro.engine.artifacts import (
    ArtifactCache,
    SharedArtifacts,
    unit_function_map,
)
from repro.engine.core import AnalysisEngine
from repro.kernel.build import parse_corpus
from repro.kernel.corpus import CorpusFile
from repro.kernel.parallel import parse_corpus_parallel
from repro.kernel.synth import generate_corpus
from repro.minic.lexer import tokenize
from repro.minic.source import Preprocessor
from repro.service.incremental import IncrementalAnalyzer
from repro.service.store import PersistentStore

from verify import (
    check_fill_twins,
    deputy_kept,
    findings_key,
    flagged,
    normalized,
    require,
)

#: Every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS = (
    "minic.lex_s", "minic.tokens", "minic.parse_s",
    "kernel.parallel.parse_s", "kernel.parallel.adopted_ratio",
    "blockstop.callgraph_s", "blockstop.pointsto_s", "blockstop.blocking_s",
    "dataflow.condense_s", "dataflow.sccs",
    "dataflow.facts.consts_s", "dataflow.facts.intervals_s",
    "dataflow.facts.octagons_s", "dataflow.infeasible_edges",
    "dataflow.summaries_s",
    *(f"engine.analyses.{name}_s" for name in ANALYSIS_ORDER),
    "engine.artifacts.load_s", "engine.artifacts.disk_hit_ratio",
    "engine.scheduler.worker_idle_ratio",
    "service.incremental.noop_pass_s", "service.incremental.parsed_units",
    "service.incremental.dirty_sccs", "service.incremental.shards_rerun",
    "service.incremental.useful_resolve_ratio",
    "service.store.open_s", "service.store.get_s", "service.store.gets",
    "service.store.hit_ratio", "service.store.put_s", "service.store.puts",
    "service.store.touch_s",
    "trace.coverage_ratio", "trace.overhead_s",
)

#: Domain prefixes solved in turn; each one's marginal cost is the
#: difference to the previous prefix's solve time.
_DOMAIN_PREFIXES = tuple(DEFAULT_DOMAINS[:size]
                         for size in range(1, len(DEFAULT_DOMAINS) + 1))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _infeasible_edges(consts) -> int:
    return sum(len(facts.infeasible) for facts in consts.values()
               if facts is not None)


def _run_checkers(tracer, artifacts, registry) -> dict:
    """Run every analysis shard by shard, the way the serial engine does."""
    reports = {}
    for name in ANALYSIS_ORDER:
        adapter = registry[name]
        with tracer.span(f"engine.analyses.{name}"):
            if adapter.per_unit:
                payloads = [adapter.run_shard(artifacts, functions)
                            for functions in artifacts.unit_functions.values()
                            if functions]
            else:
                payloads = [adapter.run_shard(artifacts, None)]
            reports[name] = adapter.merge(artifacts, payloads)
    return reports


def _check_same_analyses(reports: dict, report, what: str) -> None:
    for name, merged in reports.items():
        require(merged.to_dict() == report.analyses[name].to_dict(),
                f"{what}: {name} differs from the engine's report")


class Workload:
    """Shared state and bookkeeping of one workload run."""

    name = ""
    scale = 1
    setup_repeats = 1
    #: Ops run even when the run's seconds are spent before them.
    min_ops = 1
    #: What ``primary_s`` and ``secondary_s`` measure on this workload.
    named = ("", "")

    def __init__(self, seed: int, workdir: Path, jobs: int, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.jobs = jobs
        self.tracer = tracer
        self.files: tuple[CorpusFile, ...] = ()
        self.functions = 0
        self.kept = 0
        self._dirs = 0
        #: Per-layer samples of the traced ops: metric name -> values.
        self.samples: dict[str, list[float]] = {}

    def fresh_dir(self, label: str) -> Path:
        """A new directory name under the run's work directory."""
        self._dirs += 1
        return self.workdir / f"{label}-{self._dirs}"

    def record(self, **values: float) -> None:
        for key, value in values.items():
            self.samples.setdefault(key, []).append(value)

    def facts(self) -> dict:
        return {"scale": self.scale, "seed": self.seed,
                "tus": len(self.files), "functions": self.functions}

    def layers(self) -> dict[str, float]:
        """Per-layer metrics: the mean per traced op of each sample."""
        values = {name: 0.0 for name in LAYER_METRICS}
        for key in LAYER_METRICS:
            if key in self.samples:
                values[key] = statistics.fmean(self.samples[key])
        gets = sum(self.samples.get("service.store.gets", ()))
        values["service.store.hit_ratio"] = _ratio(
            sum(self.samples.get("service.store.hits", ())), gets)
        return values

    def prepare_trace(self) -> None:
        """Work before the traced ops (recorded as set-up, run id 0)."""

    def close(self) -> None:
        """Release what the workload keeps open between ops."""


class BatchCold(Workload):
    """Fresh engine per op: one serial and one parallel cold run."""

    name = "batch-cold"
    scale = 4
    setup_repeats = 3
    named = ("verdict_serial_s", "verdict_parallel_s")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.serial_s: list[float] = []
        self.parallel_s: list[float] = []

    def setup(self) -> None:
        """Generate the corpus and warm the process (imports, allocator,
        fork machinery) with a serial and a parallel run on a scale-1 one."""
        self.files = generate_corpus(self.scale, self.seed)
        warm = generate_corpus(1, self.seed)
        for jobs in (1, self.jobs):
            AnalysisEngine(warm, tolerant=True).run(analyses="all", jobs=jobs)

    def _check_deputy(self, report, artifacts, registry) -> None:
        units = len(self.files) - 1
        self.functions = report.summary_stats["functions"]
        self.kept = deputy_kept(report)
        require(self.kept == units,
                f"{self.kept} Deputy checks kept, expected one per unit "
                f"({units})")
        check_fill_twins(artifacts, registry, units)

    def op(self) -> None:
        start = time.perf_counter()
        engine = AnalysisEngine(self.files, tolerant=True)
        serial = engine.run(analyses="all", jobs=1)
        middle = time.perf_counter()
        parallel = AnalysisEngine(self.files, tolerant=True).run(
            analyses="all", jobs=self.jobs)
        end = time.perf_counter()
        self.serial_s.append(middle - start)
        self.parallel_s.append(end - middle)
        require(normalized(serial) == normalized(parallel),
                "serial and parallel reports differ")
        self._check_deputy(serial, engine.artifacts(), engine.registry)

    def traced_op(self) -> None:
        """The serial pipeline called layer by layer, then the parallel
        parse and a parallel engine run for the scheduler's idle ratio."""
        tracer = self.tracer
        tokens = 0
        with tracer.span("minic.lex"):
            preprocessor = Preprocessor()
            for corpus_file in self.files:
                text = preprocessor.process(corpus_file.source,
                                            corpus_file.filename)
                tokens += len(tokenize(text, corpus_file.filename))
        program = tracer.timed("minic.parse", parse_corpus, self.files)
        parsed = tracer.timed("kernel.parallel.parse", parse_corpus_parallel,
                              self.files, jobs=self.jobs, tolerant=True)
        graph, indirect_calls = tracer.timed(
            "blockstop.callgraph", build_direct_callgraph, program)
        type_envs: dict = {}
        with tracer.span("blockstop.pointsto"):
            pointsto_pass = FunctionPointerAnalysis(program,
                                                    Precision.TYPE_BASED)
            pointsto_pass.collect()
            pointsto = pointsto_pass.resolve(graph, indirect_calls,
                                             envs=type_envs)
        condensation = tracer.timed("dataflow.condense", condense_callgraph,
                                    graph)
        for domains in _DOMAIN_PREFIXES:
            consts = tracer.timed("dataflow.facts." + "+".join(domains),
                                  solve_program_facts, program, None, domains)
        summaries = tracer.timed("dataflow.summaries", solve_summaries,
                                 program, graph, condensation, consts=consts)
        blocking = tracer.timed("blockstop.blocking", derive_blocking,
                                program, graph, summaries)
        with tracer.span("engine.artifacts.assemble"):
            artifacts = SharedArtifacts(
                program=program, precision=Precision.TYPE_BASED,
                graph=graph, pointsto=pointsto, consts=consts,
                condensation=condensation, summaries=summaries,
                blocking=blocking,
                irq_handlers=find_irq_handlers(program),
                error_returning=find_error_returning_functions(program,
                                                               summaries),
                annotations={name: program.function_annotations(name)
                             for name in program.all_function_names()},
                type_envs=type_envs,
                unit_functions=unit_function_map(program))
        registry = make_registry()
        reports = _run_checkers(tracer, artifacts, registry)
        parallel = tracer.timed("engine.run.parallel",
                                AnalysisEngine(self.files, tolerant=True).run,
                                analyses="all", jobs=self.jobs)

        spans = tracer.durations(tracer.run_id)
        facts = [spans["dataflow.facts." + "+".join(domains)]
                 for domains in _DOMAIN_PREFIXES]
        cache = parallel.cache_stats
        self.record(**{
            "minic.lex_s": spans["minic.lex"],
            "minic.tokens": tokens,
            "minic.parse_s": spans["minic.parse"],
            "kernel.parallel.parse_s": spans["kernel.parallel.parse"],
            "kernel.parallel.adopted_ratio": _ratio(parsed.stats.adopted,
                                                    parsed.stats.units),
            "blockstop.callgraph_s": spans["blockstop.callgraph"],
            "blockstop.pointsto_s": spans["blockstop.pointsto"],
            "blockstop.blocking_s": spans["blockstop.blocking"],
            "dataflow.condense_s": spans["dataflow.condense"],
            "dataflow.sccs": len(condensation.sccs),
            "dataflow.facts.consts_s": facts[0],
            "dataflow.facts.intervals_s": facts[1] - facts[0],
            "dataflow.facts.octagons_s": facts[2] - facts[1],
            "dataflow.infeasible_edges": _infeasible_edges(consts),
            "dataflow.summaries_s": spans["dataflow.summaries"],
            "engine.artifacts.disk_hit_ratio": _ratio(
                cache["disk_hits"], cache["hits"] + cache["misses"]),
            "engine.scheduler.worker_idle_ratio": parallel.perf.get(
                "scheduler", {}).get("worker_idle_ratio", 0.0),
            **{f"engine.analyses.{name}_s": spans[f"engine.analyses.{name}"]
               for name in ANALYSIS_ORDER},
        })
        _check_same_analyses(reports, parallel, "layered serial pipeline")
        self._check_deputy(parallel, artifacts, registry)

    def metrics(self) -> dict[str, float]:
        return {"primary_s": _median(self.serial_s),
                "secondary_s": _median(self.parallel_s)}

    def samples_behind(self) -> int:
        return len(self.serial_s)


class _StoreProbe:
    """Spans around the store methods the analyzer calls, plus hit counts."""

    METHODS = {"get": "service.store.get", "put_many": "service.store.put",
               "touch": "service.store.touch"}

    def __init__(self, tracer, store) -> None:
        self.store = store
        for method, span in self.METHODS.items():
            tracer.wrap_method(store, method, span)

    def counters(self) -> tuple[int, int, int]:
        return self.store.hits, self.store.misses, self.store.writes

    @staticmethod
    def record(workload: Workload, spans: dict, before, after) -> None:
        hits, misses, writes = (a - b for a, b in zip(after, before))
        workload.record(**{
            "service.store.get_s": spans.get("service.store.get", 0.0),
            "service.store.gets": hits + misses,
            "service.store.hits": hits,
            "service.store.put_s": spans.get("service.store.put", 0.0),
            "service.store.puts": writes,
            "service.store.touch_s": spans.get("service.store.touch", 0.0),
        })


def _record_pass(workload: Workload, analyzer) -> None:
    stats = analyzer.last_stats
    artifacts = analyzer.artifacts
    workload.record(**{
        "service.incremental.parsed_units": stats.parsed_units,
        "service.incremental.dirty_sccs": stats.dirty_sccs,
        "service.incremental.shards_rerun": stats.shards_rerun,
        "dataflow.sccs": len(artifacts.condensation.sccs),
        "dataflow.infeasible_edges": _infeasible_edges(artifacts.consts),
    })


class ServiceEdit(Workload):
    """One warm analyzer; each op applies one seeded edit and re-analyzes.

    Ops cycle through :attr:`schedule`: three fresh edits, each to one TU
    on top of the previous ones, then a revert of all three to the set-up
    content.  Each fresh edit picks its unit from a seeded permutation, so
    a run spreads its edits evenly over the corpus.
    """

    name = "service-edit"
    scale = 1
    setup_repeats = 3
    named = ("edit_p50_s", "edit_p90_s")
    #: Enough edits that the p90 has ten samples beyond it.
    min_ops = 100
    schedule = ("body", "chain", "add", "revert")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rng = random.Random(self.seed)
        self.latencies: list[float] = []
        self.kinds = {kind: 0 for kind in self.schedule}
        self.store = None
        self.analyzer = None
        self.useful_sccs = 0
        self.dirty_sccs = 0

    def setup(self) -> None:
        self.close()
        self.files = generate_corpus(self.scale, self.seed)
        opened = time.perf_counter()
        self.store = PersistentStore(self.fresh_dir("store"))
        open_s = time.perf_counter() - opened
        self.analyzer = IncrementalAnalyzer(self.files, store=self.store)
        report = self.analyzer.analyze()
        self.functions = report.summary_stats["functions"]
        self.kept = deputy_kept(report)
        self.findings = findings_key(report)
        self.units = list(range(len(self.files) - 1))
        self.rng.shuffle(self.units)
        self.current = list(self.files)
        self.ops = self.edits = 0
        if self.tracer is not None:
            self.probe = _StoreProbe(self.tracer, self.store)
            self.record(**{"service.store.open_s": open_s})

    def prepare_trace(self) -> None:
        """Time no-op passes (the per-pass floor) before the traced ops."""
        for _ in range(3):
            started = time.perf_counter()
            self.analyzer.analyze(tuple(self.current))
            self.record(**{"service.incremental.noop_pass_s":
                           time.perf_counter() - started})

    def _revert(self):
        self.current = list(self.files)

        def check(report, stats):
            require(stats.dirty_sccs == 0 and stats.consts_solved == 0,
                    f"revert re-solved {stats.dirty_sccs} SCCs and "
                    f"{stats.consts_solved} consts")
            require(findings_key(report) == self.findings,
                    "revert did not restore the set-up findings")
        return check

    def _fresh(self, kind: str):
        unit = self.units[self.edits % len(self.units)]
        self.edits += 1
        index = unit + 1
        prefix = f"s{unit:03d}"
        source = self.current[index].source
        check = None
        if kind == "body":
            # Cycle the target: the entry, a leaf the unit's work calls and
            # one it does not, so the invalidation fan-out mix is fixed.
            head, var = (
                (f"int {prefix}_entry(int value)\n{{\n", "value"),
                (f"int {prefix}_leaf0(int v)\n{{\n", "v"),
                (f"int {prefix}_leaf1(int v)\n{{\n", "v"),
            )[self.kinds["body"] % 3]
            edited = source.replace(head, head[:-1] + (
                f" {var} = {var} + {self.rng.randrange(1, 9)};\n"))
        elif kind == "chain":
            target = f"{prefix}_locked_update"
            edited = source.replace(
                f"        spin_unlock(&{prefix}_lock);\n"
                "        return -EINVAL;",
                "        /* leak */\n        return -EINVAL;")

            def check(report, stats):
                require(target in flagged(report, "lockcheck"),
                        f"lockcheck missed the leak in {target}")
        else:
            target = f"{prefix}_extra{self.edits}"
            edited = source + (f"\nint {target}(int v)\n{{\n"
                               f"    return {prefix}_leaf0(v) + "
                               f"{self.rng.randrange(1, 9)};\n}}\n")

            def check(report, stats):
                require(target in self.analyzer.artifacts.summaries,
                        f"added function {target} has no summary")
        require(edited != source, f"{kind} edit did not apply to {prefix}")
        self.current[index] = CorpusFile(
            filename=self.current[index].filename, source=edited)
        return check

    def _apply(self) -> float:
        kind = self.schedule[self.ops % len(self.schedule)]
        check = self._revert() if kind == "revert" else self._fresh(kind)
        self.ops += 1
        self.kinds[kind] += 1
        started = time.perf_counter()
        report = self.analyzer.analyze(tuple(self.current))
        elapsed = time.perf_counter() - started
        if check is not None:
            check(report, self.analyzer.last_stats)
        return elapsed

    def op(self) -> None:
        self.latencies.append(self._apply())

    def traced_op(self) -> None:
        before = dict(self.analyzer.artifacts.summaries)
        counters = self.probe.counters()
        with self.tracer.span("service.incremental.analyze"):
            self._apply()
        spans = self.tracer.durations(self.tracer.run_id)
        _StoreProbe.record(self, spans, counters, self.probe.counters())
        _record_pass(self, self.analyzer)
        after = self.analyzer.artifacts
        dirty = {after.condensation.scc_of[name]
                 for name in self.analyzer.last_stats.dirty_functions}
        useful = sum(1 for scc in dirty
                     if any(after.summaries[name] != before.get(name)
                            for name in after.condensation.sccs[scc]))
        self.useful_sccs += useful
        self.dirty_sccs += len(dirty)

    def layers(self) -> dict[str, float]:
        values = super().layers()
        values["service.incremental.useful_resolve_ratio"] = _ratio(
            self.useful_sccs, self.dirty_sccs)
        return values

    def metrics(self) -> dict[str, float]:
        deciles = (statistics.quantiles(self.latencies, n=10)
                   if len(self.latencies) > 1 else self.latencies * 9)
        return {"primary_s": _median(self.latencies),
                "secondary_s": deciles[8]}

    def samples_behind(self) -> int:
        return len(self.latencies)

    def facts(self) -> dict:
        return {**super().facts(), "edit_mix": dict(self.kinds)}

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None


class Restart(Workload):
    """A filled store and artifact cache; each op restarts the service and
    re-runs the batch engine over the unchanged corpus."""

    name = "restart"
    scale = 2
    setup_repeats = 2
    named = ("restart_s", "batch_warm_s")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.restart_s: list[float] = []
        self.warm_s: list[float] = []

    def setup(self) -> None:
        self.files = generate_corpus(self.scale, self.seed)
        self.store_dir = self.fresh_dir("store")
        self.cache_dir = self.fresh_dir("cache")
        store = PersistentStore(self.store_dir)
        try:
            IncrementalAnalyzer(self.files, store=store).analyze()
        finally:
            store.close()
        report = AnalysisEngine(self.files, tolerant=True,
                                cache_dir=self.cache_dir).run(
            analyses="all", jobs=self.jobs)
        self.functions = report.summary_stats["functions"]
        self.kept = deputy_kept(report)
        self.expected = normalized(report)
        self.expected_report = report

    def op(self) -> None:
        started = time.perf_counter()
        store = PersistentStore(self.store_dir)
        try:
            analyzer = IncrementalAnalyzer(self.files, store=store)
            report = analyzer.analyze()
            restarted = time.perf_counter()
        finally:
            store.close()
        warm_started = time.perf_counter()
        warm = AnalysisEngine(self.files, tolerant=True,
                              cache_dir=self.cache_dir).run(
            analyses="all", jobs=1)
        finished = time.perf_counter()
        self.restart_s.append(restarted - started)
        self.warm_s.append(finished - warm_started)
        self._check_restart(analyzer, report)
        require(warm.cache_stats["disk_hits"] > 0,
                "batch warm run read nothing from disk")
        require(normalized(warm) == self.expected,
                "batch warm report differs from the cold report")

    def _check_restart(self, analyzer, report) -> None:
        stats = analyzer.last_stats
        require(stats.consts_solved == 0 and stats.dirty_sccs == 0
                and stats.shards_rerun == 0,
                f"restart re-solved {stats.consts_solved} consts, "
                f"{stats.dirty_sccs} SCCs and re-ran {stats.shards_rerun} "
                "shards")
        require(normalized(report) == self.expected,
                "restart report differs from the cold report")

    def traced_op(self) -> None:
        tracer = self.tracer
        with tracer.span("service.store.open"):
            store = PersistentStore(self.store_dir)
        try:
            probe = _StoreProbe(tracer, store)
            counters = probe.counters()
            analyzer = IncrementalAnalyzer(self.files, store=store)
            report = tracer.timed("service.incremental.analyze",
                                  analyzer.analyze)
            _StoreProbe.record(self, tracer.durations(tracer.run_id),
                               counters, probe.counters())
            _record_pass(self, analyzer)
            tracer.timed("service.incremental.noop", analyzer.analyze,
                         self.files)
        finally:
            store.close()
        self._check_restart(analyzer, report)

        cache = ArtifactCache(self.cache_dir)
        loads: list[float] = []
        original = cache.get_or_build

        def get_or_build(key, builder, persist=True):
            disk_hits, misses = cache.disk_hits, cache.misses
            started = time.perf_counter()
            value = original(key, builder, persist)
            if cache.disk_hits > disk_hits and cache.misses == misses:
                loads.append(time.perf_counter() - started)
            return value

        cache.get_or_build = get_or_build
        engine = AnalysisEngine(self.files, tolerant=True, cache=cache)
        tracer.timed("engine.artifacts.program", engine.program)
        artifacts = tracer.timed("engine.artifacts.derive", engine.artifacts)
        reports = _run_checkers(tracer, artifacts, engine.registry)
        _check_same_analyses(reports, self.expected_report, "batch warm run")

        spans = tracer.durations(tracer.run_id)
        self.record(**{
            "service.store.open_s": spans["service.store.open"],
            "service.incremental.noop_pass_s":
                spans["service.incremental.noop"],
            "engine.artifacts.load_s": sum(loads),
            "engine.artifacts.disk_hit_ratio": _ratio(
                cache.disk_hits, cache.hits + cache.misses),
            **{f"engine.analyses.{name}_s": spans[f"engine.analyses.{name}"]
               for name in ANALYSIS_ORDER},
        })

    def metrics(self) -> dict[str, float]:
        return {"primary_s": _median(self.restart_s),
                "secondary_s": _median(self.warm_s)}

    def samples_behind(self) -> int:
        return len(self.restart_s)


WORKLOADS = {workload.name: workload
             for workload in (BatchCold, ServiceEdit, Restart)}
