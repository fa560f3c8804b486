"""Human-readable exploration reports with replayable reproducers.

Every violation or error line carries the exact command that replays it:
the frontier coordinate is deterministic, so the reproducer is too.
"""

from __future__ import annotations

from .explorer import ExploreReport, FrontierResult
from .frontier import format_frontier


def reproducer_command(target: str, mode_value: str, spec: str) -> str:
    return (f"PYTHONPATH=src python -m repro check {target} "
            f"--mode {mode_value} --frontier {spec}")


def litmus_reproducer_command(seed, index, config: str | None = None,
                              frontier: str | None = None,
                              mutant: str | None = None) -> str:
    """The one-liner replaying one generated litmus crash state exactly."""
    cmd = f"PYTHONPATH=src python -m repro check --litmus-replay {seed}:{index}"
    if config:
        cmd += f" --litmus-config {config}"
    if frontier and frontier != "reference":
        cmd += f" --frontier {frontier}"
    if mutant:
        cmd += f" --mutant {mutant}"
    return cmd


def provenance_reproducer(provenance: dict) -> str | None:
    """A reproducer derived from stored provenance alone (no re-run).

    Litmus-flavoured provenance (``seed``/``index``) yields the exact
    ``--litmus-replay`` command; anything else renders as inline
    ``key=value`` coordinates.
    """
    if not provenance:
        return None
    if "seed" in provenance and "index" in provenance:
        return litmus_reproducer_command(
            provenance["seed"], provenance["index"],
            provenance.get("config"), provenance.get("frontier"),
            provenance.get("mutant"))
    return " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))


def _kind_histogram(report: ExploreReport) -> str:
    counts: dict[str, int] = {}
    for r in report.results:
        counts[r.frontier.kind] = counts.get(r.frontier.kind, 0) + 1
    return ", ".join(f"{k}: {n}" for k, n in sorted(counts.items()))


def _render_failure(report: ExploreReport, result: FrontierResult) -> list[str]:
    lines = [f"  at {format_frontier(result.frontier)}:"]
    if result.error:
        lines.append(f"    {result.status}: {result.error}")
    for v in result.failed_verdicts:
        lines.append(f"    FAILED {v.name}: {v.detail}")
    from_provenance = provenance_reproducer(result.provenance)
    if from_provenance is not None:
        lines.append("    reproduce: " + from_provenance)
    else:
        lines.append("    reproduce: " + reproducer_command(
            report.target, report.mode.value, result.frontier.spec()))
    return lines


def render_report(report: ExploreReport) -> str:
    """The full ``python -m repro check`` output."""
    lines = [
        f"crash-consistency check: {report.target} under {report.mode.value}",
        f"  frontiers recorded  {report.frontiers_recorded}",
        f"  frontiers explored  {report.frontiers_explored}"
        + (f" ({report.frontiers_pruned} pruned)" if report.frontiers_pruned else ""),
        f"  by kind             {_kind_histogram(report)}",
    ]
    invariant_names = sorted({v.name for r in report.results for v in r.verdicts})
    if invariant_names:
        lines.append("  invariants checked  " + ", ".join(invariant_names))
    violations = report.violations
    errors = report.errors
    if not violations and not errors:
        lines.append(f"PASS: zero invariant violations across "
                     f"{report.frontiers_explored} crash states")
        return "\n".join(lines)
    if violations:
        lines.append(f"VIOLATIONS ({len(violations)}):")
        for r in violations:
            lines.extend(_render_failure(report, r))
    if errors:
        lines.append(f"ERRORS ({len(errors)}):")
        for r in errors:
            lines.extend(_render_failure(report, r))
    return "\n".join(lines)


def render_image_count(count) -> str:
    """The ``python -m repro check <target> --images`` output."""
    return "\n".join([
        f"durable images: {count.target} under {count.mode.value}",
        f"  crash states        {count.states} ({count.event_states} event, "
        f"{count.thread_states} threads)",
        f"  distinct images     {count.distinct}",
        f"  threads-only images {count.thread_only}",
    ])


def render_litmus_report(report, repro_cmd=litmus_reproducer_command) -> str:
    """The full ``python -m repro check --litmus N`` output.

    ``report`` is a :class:`repro.check.litmus.LitmusReport`; every failure
    line carries the exact ``--litmus-replay`` command that replays it.
    """
    total = len(report.matrix)
    configs = len({r["config"] for r in report.matrix}) if report.matrix else 0
    states = sum(r["frontiers_explored"] for r in report.matrix)
    lines = [
        f"litmus fuzzing: {report.count} generated tests, seed {report.seed}",
        f"  config matrix       {configs} points "
        f"(persistency model x DDIO window x eADR)",
        f"  matrix executions   {total}",
        f"  crash states judged {states}",
    ]
    if report.corpus:
        bad = report.corpus_failures
        lines.append(f"  seed corpus         "
                     f"{len(report.corpus) - len(bad)}/{len(report.corpus)} ok")
        for row in bad:
            lines.append(f"    FAILED {row['target']}: expected "
                         f"{row['expected']}, got {row['recorded']} "
                         f"({row['detail']})")
    for mutant, info in report.sentinels.items():
        verdict = "caught" if info["caught"] else "UNDETECTED"
        lines.append(f"  sentinel {mutant:<16}{verdict} "
                     f"({len(info['detections'])} shown of "
                     f"{info['points']} mutated points)")
        for d in info["detections"]:
            lines.append(f"    {d['name']} at {d['frontier']} "
                         f"[test {d['index']}, {d['config']}]")
    failures = report.matrix_failures
    if failures:
        lines.append(f"VIOLATIONS ({len(failures)} matrix points):")
        for r in failures:
            lines.append(f"  test {r['seed']}:{r['index']} under {r['config']}:")
            for v in r["violations"][:4]:
                lines.append(f"    FAILED {v['name']} at {v['frontier']}: "
                             f"{v['detail']}")
            if len(r["violations"]) > 4:
                lines.append(f"    ... {len(r['violations']) - 4} more")
            lines.append("    reproduce: " + repro_cmd(
                r["seed"], r["index"], r["config"],
                r["violations"][0]["frontier"], r.get("mutant")))
    if report.ok:
        lines.append(f"PASS: {total} matrix points clean, every sentinel "
                     f"mutant caught")
    else:
        problems = []
        if failures:
            problems.append(f"{len(failures)} matrix violations")
        if report.corpus_failures:
            problems.append(f"{len(report.corpus_failures)} corpus failures")
        if report.uncaught_mutants:
            problems.append("undetected sentinel mutants: "
                            + ", ".join(report.uncaught_mutants))
        lines.append("FAIL: " + "; ".join(problems))
    return "\n".join(lines)


def render_single(report_target: str, mode_value: str,
                  result: FrontierResult) -> str:
    """Output for a ``--frontier`` single-crash replay."""
    lines = [f"replay: {report_target} under {mode_value} "
             f"at {format_frontier(result.frontier)}"]
    for v in result.verdicts:
        mark = "ok " if v.ok else "FAILED"
        lines.append(f"  {mark} {v.name}: {v.detail}")
    if result.error:
        lines.append(f"  {result.status}: {result.error}")
    lines.append("PASS" if result.status == "ok" else f"FAIL ({result.status})")
    return "\n".join(lines)
