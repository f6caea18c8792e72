"""The unified analysis engine.

:class:`AnalysisEngine` parses each corpus translation unit exactly once,
derives the shared artifacts (AST, symbol tables, annotations, call graph,
points-to solution) through the content-keyed :class:`ArtifactCache`, and
dispatches every registered analysis over them.  Constant facts, SCC
summaries and checker shards are one dependency-counted task graph, run
in-process for serial runs and on a forked work-stealing pool otherwise;
results are merged in a fixed order, so parallel runs produce byte-identical
reports.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..blockstop.pointsto import Precision
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..dataflow.domains import (
    DEFAULT_DOMAINS,
    domain_fingerprint,
    solve_program_facts,
)
from ..dataflow.interproc import (
    build_context,
    callgraph_fingerprint,
    solve_scc,
)
from ..deputy.checker import DeputyOptions
from ..kernel.build import ParseDiagnostic, parse_corpus, parse_corpus_tolerant
from ..kernel.corpus import KERNEL_FILES, CorpusFile
from ..machine.program import Program
from .analyses import (
    ANALYSIS_ORDER,
    AnalysisReport,
    diagnostics_report,
    finding_sort_key,
    make_registry,
)
from .artifacts import (
    ArtifactCache,
    SharedArtifacts,
    build_shared_artifacts,
    unit_function_map,
)
from .scheduler import Task, open_executor, resolve_jobs

#: Task tuple: (analysis name, shard index, function subset or None).
_Task = tuple[str, int, "list[str] | None"]


def make_task_handler(program, graph, pointsto, precision, registry):
    """The per-worker task handler shared by the engine and the service.

    Returns a closure over the phase-independent artifacts (parsed program,
    resolved call graph, points-to solution) — pool workers receive it
    through ``fork()`` at executor construction, so none of it is ever
    pickled.  Per-phase inputs arrive with the task payload (dependency
    summaries, member constant facts) or via broadcast (the merged artifacts
    the checker shards consume); ``memo`` holds what a worker derives once
    and reuses across tasks (its summary context, its assembled artifact
    view).
    """
    memo: dict = {}

    def handler(kind, payload, state):
        if kind == "consts":
            return solve_program_facts(program, payload)
        if kind == "scc":
            scc, needed, member_facts = payload
            ctx = memo.get("ctx")
            if ctx is None:
                ctx = memo["ctx"] = build_context(program, graph)
            # Shipped facts are pure functions of the sources, so the
            # context's memo can only ever grow consistent entries; any
            # member missing one falls back to the lazy in-context solve.
            ctx.consts.update(member_facts)
            return solve_scc(scc, ctx, graph, needed)
        if kind == "shard":
            name, index, functions = payload
            # Inline executors share the parent's memory: use the real
            # artifacts (warm type envs and all) instead of assembling a
            # worker-side view from broadcast pieces.
            shared = state.get("shared_artifacts")
            if shared is not None:
                return name, index, registry[name].run_shard(shared,
                                                             functions)
            data = state["artifacts"]
            artifacts = memo.get("artifacts")
            if artifacts is None or memo.get("artifacts_from") is not data:
                artifacts = SharedArtifacts(
                    program=program,
                    precision=precision,
                    graph=graph,
                    pointsto=pointsto,
                    consts=data["consts"],
                    condensation=data["condensation"],
                    summaries=data["summaries"],
                    blocking=data["blocking"],
                    irq_handlers=data["irq_handlers"],
                    error_returning=data["error_returning"],
                    annotations=data["annotations"],
                    unit_functions=unit_function_map(program))
                memo["artifacts"] = artifacts
                memo["artifacts_from"] = data
            return name, index, registry[name].run_shard(artifacts, functions)
        raise ValueError(f"unknown task kind {kind!r}")

    return handler


def scc_tasks(graph, condensation, indices, facts, clean=None,
              fact_task=None) -> "list[Task]":
    """One summary task per SCC in ``indices`` (condensation indices).

    A task depends on the tasks of its callee components that are also in
    ``indices`` and on the consts tasks that solve its members' facts
    (``fact_task`` maps a function to that task's id).  Its payload is bound
    at dispatch as ``(scc, needed, member_facts)``: ``needed`` holds the
    out-of-component callee summaries the fixpoint can look up — from a
    dependency's result, or from ``clean`` for components solved earlier —
    and ``member_facts`` the members' constant facts, from ``facts`` or from
    their consts task's result.  Per-task size thus tracks the component,
    not the program.
    """
    clean = clean or {}
    fact_task = fact_task or {}
    indices = sorted(indices)
    scheduled = set(indices)
    wave_of = {index: depth
               for depth, wave in enumerate(condensation.waves)
               for index in wave}

    def payload_fn(scc):
        def bind(results):
            members = set(scc)
            needed = {}
            for name in scc:
                for callee in graph.edges.get(name, ()):
                    if callee in members or callee in needed:
                        continue
                    owner = condensation.scc_of.get(callee)
                    component = results.get(f"scc:{owner}")
                    if component is not None:
                        if callee in component:
                            needed[callee] = component[callee]
                    elif callee in clean:
                        needed[callee] = clean[callee]
            member_facts = {}
            for name in scc:
                if name in facts:
                    member_facts[name] = facts[name]
                    continue
                shard = results.get(fact_task.get(name))
                if shard is not None and name in shard:
                    member_facts[name] = shard[name]
            return (scc, needed, member_facts)

        return bind

    tasks = []
    for index in indices:
        scc = condensation.sccs[index]
        deps = sorted({fact_task[name] for name in scc if name in fact_task})
        deps.extend(f"scc:{callee}"
                    for callee in condensation.scc_callees.get(index, ())
                    if callee in scheduled)
        tasks.append(Task(id=f"scc:{index}", kind="scc", deps=tuple(deps),
                          payload_fn=payload_fn(scc),
                          wave=wave_of.get(index, 0)))
    return tasks


@dataclass
class EngineReport:
    """The merged result of one engine run over the corpus."""

    analyses: dict[str, AnalysisReport] = field(default_factory=dict)
    corpus_files: list[str] = field(default_factory=list)
    precision: str = "type_based"
    jobs: int = 1
    parallel: bool = False
    elapsed_seconds: float = 0.0
    cache_stats: dict[str, int] = field(default_factory=dict)
    summary_stats: dict = field(default_factory=dict)
    #: Wall-clock breakdown and scheduler counters — timing-dependent, so
    #: (like ``cache_stats``) excluded from byte-identity comparisons.
    perf: dict = field(default_factory=dict)

    # -- queries ------------------------------------------------------------

    def all_findings(self) -> list[dict]:
        collected: list[dict] = []
        for name in sorted(self.analyses):
            collected.extend(self.analyses[name].findings)
        return sorted(collected, key=finding_sort_key)

    @property
    def finding_count(self) -> int:
        return sum(len(report.findings) for report in self.analyses.values())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "repro-engine-report/1",
            "corpus_files": self.corpus_files,
            "precision": self.precision,
            "jobs": self.jobs,
            "parallel": self.parallel,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "cache_stats": self.cache_stats,
            "summary_stats": self.summary_stats,
            "perf": self.perf,
            "analyses": {name: report.to_dict()
                         for name, report in self.analyses.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineReport":
        report = cls(
            corpus_files=list(payload.get("corpus_files", [])),
            precision=payload.get("precision", "type_based"),
            jobs=int(payload.get("jobs", 1)),
            parallel=bool(payload.get("parallel", False)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            cache_stats=dict(payload.get("cache_stats", {})),
            summary_stats=dict(payload.get("summary_stats", {})),
            perf=dict(payload.get("perf", {})),
        )
        for name, raw in payload.get("analyses", {}).items():
            report.analyses[name] = AnalysisReport.from_dict(raw)
        return report

    # -- rendering ----------------------------------------------------------

    def render_text(self) -> str:
        lines = ["== repro analysis engine =="]
        lines.append(f"corpus: {len(self.corpus_files)} translation units; "
                     f"precision {self.precision}; "
                     f"{'parallel, %d jobs' % self.jobs if self.parallel else 'serial'}")
        if self.cache_stats:
            lines.append("cache: {hits} hits, {misses} misses, "
                         "{disk_hits} from disk".format(**self.cache_stats))
        if self.perf:
            phases = self.perf.get("phases", {})
            scheduler = self.perf.get("scheduler", {})
            lines.append(
                "perf: parse {parse:.2f}s, artifacts {artifacts:.2f}s, "
                "checkers {checkers:.2f}s [{mode}]".format(
                    parse=phases.get("parse", 0.0),
                    artifacts=phases.get("artifacts", 0.0),
                    checkers=phases.get("checkers", 0.0),
                    mode=scheduler.get("mode", "serial")))
            if "worker_idle_ratio" in scheduler:
                lines.append(
                    "scheduler: {tasks} tasks in {chunks} chunks, "
                    "max ready {max_ready}, idle {idle:.0%}".format(
                        tasks=scheduler.get("tasks", 0),
                        chunks=scheduler.get("chunks", 0),
                        max_ready=scheduler.get("max_ready", 0),
                        idle=scheduler.get("worker_idle_ratio", 0.0)))
        if self.summary_stats:
            lines.append(
                "summaries: {functions} functions in {sccs} SCCs "
                "({recursive} recursive) over {waves} waves; "
                "cache {cache}".format(
                    functions=self.summary_stats.get("functions", 0),
                    sccs=self.summary_stats.get("sccs", 0),
                    recursive=self.summary_stats.get("recursive_functions", 0),
                    waves=self.summary_stats.get("waves", 0),
                    cache="hit" if self.summary_stats.get("cache_hit")
                    else "miss"))
            lines.append(
                "consts: {functions} functions solved, {pruned} with "
                "infeasible edges ({edges} edges pruned); cache {cache}".format(
                    functions=self.summary_stats.get("consts_functions", 0),
                    pruned=self.summary_stats.get("consts_pruned_functions", 0),
                    edges=self.summary_stats.get("consts_infeasible_edges", 0),
                    cache="hit" if self.summary_stats.get("consts_cache_hit")
                    else "miss"))
            lines.append(
                "intervals: {pruned} functions with interval-only pruning "
                "({edges} edges pruned)".format(
                    pruned=self.summary_stats.get(
                        "intervals_pruned_functions", 0),
                    edges=self.summary_stats.get(
                        "intervals_infeasible_edges", 0)))
            lines.append(
                "octagons: {pruned} functions with relational-only pruning "
                "({edges} edges pruned)".format(
                    pruned=self.summary_stats.get(
                        "octagons_pruned_functions", 0),
                    edges=self.summary_stats.get(
                        "octagons_infeasible_edges", 0)))
        for name in sorted(self.analyses):
            report = self.analyses[name]
            lines.append("")
            lines.append(f"-- {name} --")
            for key in sorted(report.metrics):
                lines.append(f"  {key:>32}: {report.metrics[key]}")
            lines.append(f"  findings: {len(report.findings)}")
            for finding in report.findings:
                where = f"{finding['file']}:{finding['line']}" if finding["file"] else "-"
                lines.append(f"    {where} [{finding['kind']}] "
                             f"{finding['function']}: {finding['message']}")
        lines.append("")
        lines.append(f"total findings: {self.finding_count} "
                     f"({self.elapsed_seconds:.2f}s)")
        return "\n".join(lines)


class AnalysisEngine:
    """Parse once, analyze many: the shared-work front end for all checkers."""

    def __init__(self,
                 files: tuple[CorpusFile, ...] = KERNEL_FILES,
                 defines: dict[str, str] | None = None,
                 precision: Precision = Precision.TYPE_BASED,
                 cache: ArtifactCache | None = None,
                 cache_dir: str | None = None,
                 cache_max_mb: float | None = None,
                 tolerant: bool = False,
                 deputy_options: DeputyOptions | None = None,
                 runtime_checks: RuntimeCheckSet | None = None) -> None:
        self.files = tuple(files)
        self.defines = dict(defines or {})
        self.precision = precision
        self.cache = (cache if cache is not None
                      else ArtifactCache(cache_dir, max_mb=cache_max_mb))
        #: Tolerant mode isolates frontend errors per translation unit: the
        #: broken file becomes a structured ``diagnostics`` finding and every
        #: other unit is still analyzed.  Strict mode (the default) raises.
        self.tolerant = tolerant
        self.registry = make_registry(deputy_options, runtime_checks)
        #: Whether the last summary solve was served from the cache; None
        #: until a solve is attempted (e.g. artifacts were memory-cached).
        self._summary_cache_hit: bool | None = None
        #: Same flag for the constant-facts artifact, plus its solve time
        #: (0.0 on a cache hit; excluded from deterministic report fields).
        self._consts_cache_hit: bool | None = None
        self._consts_solve_seconds: float = 0.0
        #: The run's persistent executor.  Created by the first phase that
        #: schedules work, reused by every later phase of the same run,
        #: closed when the run (or a standalone ``artifacts()``) finishes.
        self._executor = None
        #: Test hook: ready-queue pick function for the inline executor
        #: (scrambles completion order to prove determinism).
        self._inline_pick = None
        #: Stats from the last parallel parse (None when the serial parser
        #: built the program), and the constant facts its workers solved
        #: speculatively while parsing — exact ``facts_of`` results for
        #: functions of adopted TUs, so the consts phase skips them.
        self._parse_stats = None
        self._speculative_facts: dict = {}

    # -- shared artifacts ---------------------------------------------------

    def program_key(self) -> str:
        kind = "program-tolerant" if self.tolerant else "program"
        return self.cache.content_key(kind, files=self.files,
                                      defines=self.defines)

    def program(self, jobs: int = 1) -> Program:
        """The parsed, linked corpus — built at most once per content key.

        With ``jobs > 1`` the build runs the two-pass speculative parallel
        parser instead of the serial front-end; the replay pass makes the
        result byte-identical either way, so both paths share one cache key.
        """
        if self.tolerant:
            return self._tolerant_parse(jobs)[0]

        def build() -> Program:
            if jobs > 1:
                return self._parse_parallel(jobs, tolerant=False)[0]
            return parse_corpus(self.files, self.defines)

        return self.cache.get_or_build(self.program_key(), build)

    def _tolerant_parse(self, jobs: int = 1
                        ) -> "tuple[Program, tuple[ParseDiagnostic, ...]]":
        def build():
            if jobs > 1:
                return self._parse_parallel(jobs, tolerant=True)
            return parse_corpus_tolerant(self.files, self.defines)

        return self.cache.get_or_build(self.program_key(), build)

    def _parse_parallel(self, jobs: int, tolerant: bool):
        """Parse with the speculative front-end, keeping its stats and the
        constant facts its workers solved while parsing."""
        from ..kernel.parallel import parse_corpus_parallel
        result = parse_corpus_parallel(self.files, self.defines, jobs=jobs,
                                       tolerant=tolerant)
        self._parse_stats = result.stats
        self._speculative_facts = dict(result.facts)
        return result.program, result.diagnostics

    def parse_diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        """Per-file frontend errors (tolerant mode only; else empty)."""
        if not self.tolerant:
            return ()
        return self._tolerant_parse()[1]

    def fresh_program(self) -> Program:
        """A private, mutation-safe copy of the parsed corpus.

        Instrumenting builds (Deputy/CCount rewriting, the hbench harness)
        mutate the AST in place; they get a deep copy of the cached parse
        instead of re-parsing the corpus.
        """
        # Deep, not path-copied: the Deputy instrumenter assigns into
        # expression nodes in place (``expr.operand = check``).
        return copy.deepcopy(self.program())

    def fresh_kernel_program(self, config=None) -> Program | None:
        """A mutation-safe parse for a kernel build, or None on mismatch.

        Kernel builds parse ``KERNEL_FILES`` with ``config.defines``; this
        engine's cached parse can only substitute for that when its own file
        set and defines match.  Returning ``None`` tells ``build_kernel`` to
        parse from scratch rather than silently build the wrong corpus.
        """
        defines = dict(getattr(config, "defines", None) or {})
        if self.files == KERNEL_FILES and defines == self.defines:
            return self.fresh_program()
        return None

    def kernel_program_factory(self):
        """A ``program_factory`` for the hbench/boot path (see above)."""
        return self.fresh_kernel_program

    def artifacts(self) -> SharedArtifacts:
        """Shared artifacts for the configured precision (memory-cached).

        A standalone call solves in-process and closes the executor its
        build opened; ``run`` keeps its executor open for the checker
        shards (see :meth:`_shared_artifacts`).
        """
        try:
            return self._shared_artifacts(jobs=1)
        finally:
            self._close_executor()

    def _shared_artifacts(self, jobs: int) -> SharedArtifacts:
        key = self.cache.content_key(
            "artifacts", files=self.files, defines=self.defines,
            extra={"precision": self.precision.name})
        return self.cache.get_or_build(
            key,
            lambda: build_shared_artifacts(
                self.program(), self.precision,
                phase_solver=lambda program, graph, pointsto, condensation:
                self._phase_solver(program, graph, pointsto, condensation,
                                   jobs)),
            persist=False)

    def _ensure_executor(self, program, graph, pointsto, jobs: int,
                         tasks: int):
        """The run's persistent executor, opened on first use.

        Workers fork *after* points-to resolution (``resolve`` mutates the
        call graph in place), so the handler's inherited view of the graph
        is the final one every phase agrees on.  ``tasks`` is the size of
        the first graph it runs (see :func:`open_executor`).
        """
        if self._executor is None:
            handler = make_task_handler(program, graph, pointsto,
                                        self.precision, self.registry)
            self._executor = open_executor(jobs, handler, tasks,
                                           pick=self._inline_pick)
        return self._executor

    def _close_executor(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def _phase_solver(self, program, graph, pointsto, condensation,
                      jobs: int):
        """Solve constant facts and summaries as one overlapped task graph.

        Per-TU consts tasks have no dependencies; each SCC task depends on
        the consts tasks covering its member functions plus its callee SCC
        tasks — so summary work starts as soon as *its* TUs' facts exist,
        while other TUs are still being solved, with no phase barrier in
        between (see :func:`scc_tasks`).

        The two artifacts keep separate cache keys: a warm run loads them
        here without scheduling anything.  The summary key mixes in the
        call-graph fingerprint, so any change to the corpus or to the
        points-to resolution invalidates persisted summaries; the consts key
        depends only on the sources and the abstract-domain set, so engines
        at different precisions share it.  Merging replays the reference
        order (program order for consts, wave order for summaries), so the
        artifacts are byte-identical with :func:`build_shared_artifacts`'
        inline solve no matter when tasks finished.
        """
        consts_key = self.cache.content_key(
            "consts", files=self.files, defines=self.defines,
            extra={"domains": domain_fingerprint(DEFAULT_DOMAINS)})
        summaries_key = self.cache.content_key(
            "summaries", files=self.files, defines=self.defines,
            extra={"precision": self.precision.name,
                   "callgraph": callgraph_fingerprint(graph)})
        consts_hit = self.cache.contains(consts_key)
        summaries_hit = self.cache.contains(summaries_key)
        self._consts_cache_hit = consts_hit
        self._summary_cache_hit = summaries_hit
        cached_consts = (self.cache.get_or_build(consts_key, dict)
                         if consts_hit else None)
        if consts_hit and summaries_hit:
            return cached_consts, self.cache.get_or_build(summaries_key, dict)

        # Facts known up front: the cached artifact, or the exact facts_of
        # results the parallel parse workers solved while parsing.  Only the
        # remaining functions get a consts task, one per unit.
        known = cached_consts if consts_hit else self._speculative_facts
        tasks: list[Task] = []
        fact_task: dict[str, str] = {}
        if not consts_hit:
            for filename, functions in unit_function_map(program).items():
                missing = [name for name in functions if name not in known]
                if missing:
                    task_id = f"consts:{filename}"
                    tasks.append(Task(id=task_id, kind="consts",
                                      payload=missing, wave=-1))
                    fact_task.update(dict.fromkeys(missing, task_id))
        consts_ids = [task.id for task in tasks]
        if not summaries_hit:
            tasks.extend(scc_tasks(graph, condensation,
                                   range(len(condensation.sccs)), known,
                                   fact_task=fact_task))

        executor = self._ensure_executor(program, graph, pointsto, jobs,
                                         len(tasks))
        results = executor.run(tasks)

        if consts_hit:
            consts = cached_consts
        else:
            merged: dict = dict(known)
            for task_id in consts_ids:
                merged.update(results[task_id])
            ordered = {name: merged[name]
                       for name, _ in program.functions_subset(None)
                       if name in merged}
            consts = self.cache.get_or_build(consts_key, lambda: ordered)
            self._consts_solve_seconds = sum(
                executor.stats.task_busy[task_id] for task_id in consts_ids)
        if summaries_hit:
            summaries = self.cache.get_or_build(summaries_key, dict)
        else:
            solved: dict = {}
            for wave in condensation.waves:
                for index in wave:
                    solved.update(results[f"scc:{index}"])
            summaries = self.cache.get_or_build(summaries_key, lambda: solved)
        return consts, summaries

    def summary_stats(self, artifacts: SharedArtifacts) -> dict:
        """Condensation/summary metrics for the report (and the CI bench).

        The ``consts_*`` / ``intervals_*`` / ``octagons_*`` entries describe
        the condition facts artifact (the consts×intervals×octagons
        product): function coverage, how many functions each component
        pruned, and the per-component infeasible-edge counts — each pruned
        edge is attributed to exactly one component (the constant lattice
        first, then intervals, then octagons for edges only the relational
        domain proves dead), so the three edge counters sum to the total.
        All pure functions of the sources, so serial and parallel reports
        agree byte-for-byte (the wall-clock solve time lives in
        ``cache_stats``, which report comparisons already normalize away).
        """
        condensation = artifacts.condensation
        solved = [fc for fc in artifacts.consts.values() if fc is not None]
        interval_edges = sum(len(fc.interval_pruned) for fc in solved)
        octagon_edges = sum(len(fc.octagon_pruned) for fc in solved)
        return {
            "functions": len(artifacts.summaries),
            "sccs": len(condensation.sccs),
            "waves": len(condensation.waves),
            "largest_wave": max((len(w) for w in condensation.waves),
                                default=0),
            "recursive_functions": len(condensation.recursive_functions()),
            "cache_hit": (True if self._summary_cache_hit is None
                          else self._summary_cache_hit),
            "consts_functions": len(solved),
            "consts_pruned_functions": sum(
                1 for fc in solved
                if len(fc.infeasible) > len(fc.interval_pruned)
                + len(fc.octagon_pruned)),
            "consts_infeasible_edges": (sum(len(fc.infeasible)
                                            for fc in solved)
                                        - interval_edges - octagon_edges),
            "consts_cache_hit": (True if self._consts_cache_hit is None
                                 else self._consts_cache_hit),
            "intervals_pruned_functions": sum(
                1 for fc in solved if fc.interval_pruned),
            "intervals_infeasible_edges": interval_edges,
            "octagons_pruned_functions": sum(
                1 for fc in solved if fc.octagon_pruned),
            "octagons_infeasible_edges": octagon_edges,
        }

    # -- running ------------------------------------------------------------

    def resolve_analyses(self, analyses: Iterable[str] | str | None) -> list[str]:
        """Normalize an analysis selection ('all', CSV, or a list) to names."""
        if analyses is None or analyses == "all":
            return [name for name in ANALYSIS_ORDER if name in self.registry]
        if isinstance(analyses, str):
            analyses = [part.strip() for part in analyses.split(",") if part.strip()]
        names: list[str] = []
        for name in analyses:
            if name == "all":
                names.extend(n for n in ANALYSIS_ORDER if n in self.registry)
                continue
            if name not in self.registry:
                known = ", ".join(sorted(self.registry))
                raise KeyError(f"unknown analysis {name!r} (known: {known})")
            names.append(name)
        seen: set[str] = set()
        return [n for n in names if not (n in seen or seen.add(n))]

    def _build_tasks(self, names: list[str],
                     artifacts: SharedArtifacts) -> list[_Task]:
        tasks: list[_Task] = []
        for name in names:
            adapter = self.registry[name]
            if adapter.per_unit:
                index = 0
                for functions in artifacts.unit_functions.values():
                    if not functions:
                        continue
                    tasks.append((name, index, functions))
                    index += 1
            else:
                tasks.append((name, 0, None))
        return tasks

    def _run_shards(self, artifacts: SharedArtifacts,
                    tasks: "list[_Task]", jobs: int):
        """Run the checker shards on the run's persistent executor.

        A worker pool gets the merged artifacts broadcast once per worker
        (inbox FIFO order guarantees every shard task dispatched afterwards
        sees them); per-unit shards then ship only ``(analysis, index,
        functions)``.  Whole-program analyses run in the parent, overlapping
        the pool instead of serializing behind it.
        """
        shard_wave = len(artifacts.condensation.waves) + 1
        steal_tasks: list[Task] = []
        parent_tasks = []
        for name, index, functions in tasks:
            task_id = f"shard:{name}:{index}"
            if functions is None:
                parent_tasks.append(
                    (task_id,
                     lambda name=name, index=index:
                     (name, index,
                      self.registry[name].run_shard(artifacts, None))))
            else:
                steal_tasks.append(Task(id=task_id, kind="shard",
                                        payload=(name, index, functions),
                                        wave=shard_wave))
        executor = self._ensure_executor(artifacts.program, artifacts.graph,
                                         artifacts.pointsto, jobs,
                                         len(steal_tasks))
        if executor.parallel:
            executor.broadcast("artifacts", {
                "consts": artifacts.consts,
                "condensation": artifacts.condensation,
                "summaries": artifacts.summaries,
                "blocking": artifacts.blocking,
                "irq_handlers": artifacts.irq_handlers,
                "error_returning": artifacts.error_returning,
                "annotations": artifacts.annotations,
            })
        else:
            executor.broadcast("shared_artifacts", artifacts)
        results = executor.run(steal_tasks, parent_tasks)
        return list(results.values()), executor

    @staticmethod
    def _perf_payload(mode: str, phases: dict, executor) -> dict:
        """The report's timing/scheduler block (normalized out of identity
        comparisons alongside ``cache_stats``)."""
        payload = {"phases": {key: round(value, 4)
                              for key, value in phases.items()}}
        scheduler_stats = {"mode": mode, **executor.stats.to_dict()}
        busy = {"consts": 0.0, "scc": 0.0, "shard": 0.0}
        for task_id, seconds in executor.stats.task_busy.items():
            kind = task_id.split(":", 1)[0]
            if kind in busy:
                busy[kind] += seconds
        scheduler_stats["busy_by_phase"] = {
            key: round(value, 4) for key, value in busy.items()}
        payload["scheduler"] = scheduler_stats
        return payload

    def run(self, analyses: Iterable[str] | str | None = None,
            jobs: int = 1) -> EngineReport:
        """Run the selected analyses over the corpus and merge their reports.

        ``jobs=0`` auto-detects ``os.cpu_count()``.  Consts, summaries and
        checker shards run as one dependency-counted task graph with no
        phase barriers: in-process for ``jobs=1`` (the report's scheduler
        mode is ``serial``), on one persistent forked work-stealing pool
        otherwise (see :func:`open_executor`).  Every run produces a
        byte-identical report.

        Parallel runs also parse in parallel: the two-pass speculative
        front-end hands adopted TUs' speculative constant facts straight to
        the consts phase, so per-TU solving effectively starts before the
        last TU finishes parsing.
        """
        jobs = resolve_jobs(jobs)
        start = time.perf_counter()
        phases: dict[str, float] = {}
        names = self.resolve_analyses(analyses)
        try:
            step = time.perf_counter()
            self.program(jobs=jobs)
            phases["parse"] = time.perf_counter() - step
            step = time.perf_counter()
            artifacts = self._shared_artifacts(jobs)
            phases["artifacts"] = time.perf_counter() - step
            tasks = self._build_tasks(names, artifacts)
            step = time.perf_counter()
            results, executor = self._run_shards(artifacts, tasks, jobs)
            phases["checkers"] = time.perf_counter() - step
        finally:
            self._close_executor()

        shards: dict[str, list[tuple[int, dict]]] = {name: [] for name in names}
        for name, index, payload in results:
            shards[name].append((index, payload))

        report = EngineReport(
            corpus_files=[f.filename for f in self.files],
            precision=self.precision.name.lower(),
            jobs=jobs if executor.parallel else 1,
            parallel=executor.parallel,
        )
        for name in names:
            payloads = [payload for _, payload in sorted(shards[name])]
            report.analyses[name] = self.registry[name].merge(artifacts, payloads)
        diagnostics = self.parse_diagnostics()
        if diagnostics:
            report.analyses["diagnostics"] = diagnostics_report(diagnostics)
        report.elapsed_seconds = time.perf_counter() - start
        report.cache_stats = {"hits": self.cache.hits,
                              "misses": self.cache.misses,
                              "disk_hits": self.cache.disk_hits,
                              "evictions": self.cache.evictions,
                              "const_solve_ms": round(
                                  self._consts_solve_seconds * 1000, 3)}
        report.summary_stats = self.summary_stats(artifacts)
        mode = "work-steal" if executor.parallel else "serial"
        report.perf = self._perf_payload(mode, phases, executor)
        if self._parse_stats is not None:
            report.perf["parse"] = self._parse_stats.to_dict()
        return report
