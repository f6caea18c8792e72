"""Correctness checks: the seed-corpus gate and the known-answer helpers.

Expected answers come from the structure of the inputs (the embedded
kernel corpus's seeded bugs and the synthetic generator's fixed function
shapes), never from a previous run of the analyzer.
"""

from __future__ import annotations

import copy
import json

#: Deputy discharges on the embedded corpus (the CI discharge gate's floor).
DEPUTY_DISCHARGE_BASELINE = 276
#: Of those, discharges owed to relational (octagon) entailment.
DEPUTY_RELATIONAL_BASELINE = 11


class CheckFailed(Exception):
    """An output differs from its known answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def normalized(report) -> str:
    """A report's deterministic content as JSON: run metadata removed."""
    payload = copy.deepcopy(report.to_dict())
    for key in ("jobs", "parallel", "elapsed_seconds", "cache_stats", "perf"):
        payload.pop(key, None)
    payload["summary_stats"].pop("cache_hit", None)
    payload["summary_stats"].pop("consts_cache_hit", None)
    return json.dumps(payload, sort_keys=True)


def findings_key(report) -> str:
    return json.dumps(report.all_findings(), sort_keys=True)


def flagged(report, analysis: str) -> set[str]:
    """Functions the analysis reported a finding in."""
    return {finding["function"]
            for finding in report.analyses[analysis].findings}


def deputy_kept(report) -> int:
    """Deputy obligations left as run-time checks."""
    return report.analyses["deputy"].metrics["obligations_runtime"]


def seed_gate() -> None:
    """Run every analysis on the embedded corpus and check its known answers.

    Covers the condition-gated pruning the synthetic corpus never reaches.
    """
    from repro.engine.core import AnalysisEngine

    engine = AnalysisEngine()
    report = engine.run(analyses="all")
    metrics = report.analyses["deputy"].metrics
    require(metrics["obligations_static"] >= DEPUTY_DISCHARGE_BASELINE,
            f"seed corpus: {metrics['obligations_static']} Deputy checks "
            f"discharged, baseline {DEPUTY_DISCHARGE_BASELINE}")
    require(metrics["checks_relational"] >= DEPUTY_RELATIONAL_BASELINE,
            f"seed corpus: {metrics['checks_relational']} relational "
            f"discharges, baseline {DEPUTY_RELATIONAL_BASELINE}")
    blockstop = flagged(report, "blockstop")
    lockcheck = flagged(report, "lockcheck")
    for name in ("buggy_stats_update", "disk_timeout_interrupt"):
        require(name in blockstop, f"seed corpus: BlockStop missed {name}")
    consts = engine.artifacts().consts
    # The DEBUG_AUDIT (constant-false) arms are pruned and report nothing.
    for name in ("audit_try_slot_debug", "stats_sample_fast"):
        require(consts[name] is not None and consts[name].prunes,
                f"seed corpus: DEBUG_AUDIT arm of {name} not pruned")
    require(not {"audit_try_slot_debug", "audit_probe_debug"} & lockcheck,
            "seed corpus: lockcheck reports a pruned DEBUG_AUDIT arm")
    require("stats_sample_fast" not in blockstop,
            "seed corpus: BlockStop reports a pruned DEBUG_AUDIT arm")
    # Their TRACE_AUDIT (constant-true) twins keep reporting.
    for name in ("audit_try_slot_trace", "audit_probe_trace"):
        require(name in lockcheck, f"seed corpus: lockcheck missed {name}")
    require("stats_sample_slow" in blockstop,
            "seed corpus: BlockStop missed stats_sample_slow")


def check_fill_twins(artifacts, registry, units: int) -> None:
    """Per synthetic unit: ``_fill`` and ``_fill_limit`` are discharged (the
    latter relationally) and the off-by-one ``_fill_off`` keeps its check."""
    names = [f"s{unit:03d}_{suffix}" for unit in range(units)
             for suffix in ("fill", "fill_off", "fill_limit")]
    functions = registry["deputy"].run_shard(artifacts, names)["functions"]
    for unit in range(units):
        prefix = f"s{unit:03d}"
        fill = functions[f"{prefix}_fill"]
        off = functions[f"{prefix}_fill_off"]
        limit = functions[f"{prefix}_fill_limit"]
        require(off["counts"]["runtime"] >= 1,
                f"{prefix}_fill_off lost its run-time check")
        require(fill["counts"]["runtime"] == 0 and fill["counts"]["static"] >= 1,
                f"{prefix}_fill not discharged statically")
        require(limit["counts"]["runtime"] == 0
                and limit["discharges"]["relational"] >= 1,
                f"{prefix}_fill_limit not discharged relationally")
