"""Orchestrator for ``repro-bus check``: load, sweep, baseline, report.

:func:`run_check` is the single entry point the CLI, the tests and CI all
go through: parse the tree into a :class:`Project`, run the local rules in
one AST pass per module plus every project rule over the shared
:class:`CheckContext`, drop ``# repro: noqa`` suppressed findings, fold the
committed baseline in (grandfathered findings demote to INFO, stale
entries surface as warnings), and package everything as
:class:`~repro.analysis.report.AnalysisReport` objects — one per module
with findings plus one summary report — so the text/JSON rendering is the
same machinery ``repro-bus lint`` and ``prove`` already use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import AnalysisReport, Severity
from repro.analysis.static.baseline import (
    BaselineEntry,
    BaselineMatch,
    apply_baseline,
    load_baseline,
)
from repro.analysis.static.project import Project, ProjectConfig, ProjectError
from repro.analysis.static.rules import (
    ALL_RULES,
    CheckContext,
    LocalRule,
    ProjectRule,
    RawFinding,
    run_local_rules,
)

PASS_NAME = "static"

#: Default location of the committed baseline, relative to the repo root.
DEFAULT_BASELINE_NAME = "sa-baseline.json"


def default_config() -> ProjectConfig:
    """The shipped configuration for analyzing ``src/repro``.

    Worker entries are the engine's fan-out surface (``_worker_init`` and
    ``_run_cell`` run inside forked workers; ``compute_cell`` is the work
    itself).  Key entries are the four functions
    whose outputs must be process-independent: cache cell keys, cache
    code versions, and the manifest's deterministic view/digest.
    """
    return ProjectConfig(
        worker_entries=(
            "repro.engine.runner._worker_init",
            "repro.engine.runner._run_cell",
            "repro.engine.cells.compute_cell",
        ),
        worker_allowlist=("repro.obs.",),
        key_entries=(
            "repro.engine.cache.cell_key",
            "repro.engine.cache.code_version",
            "repro.obs.manifest.deterministic_view",
            "repro.obs.manifest.digest_text",
        ),
        registry_modules=("repro.core.registry",),
        specs_module="repro.analysis.formal.specs",
        contracts_module="repro.analysis.contracts",
    )


@dataclass
class CheckResult:
    """Everything one analyzer run produced."""

    reports: List[AnalysisReport]
    new_findings: List[RawFinding]
    grandfathered: List[Tuple[RawFinding, BaselineEntry]]
    stale_entries: List[BaselineEntry]
    suppressed_count: int
    modules_scanned: int
    rules_run: int
    elapsed_s: float
    raw_findings: List[RawFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no *new* error-level finding survived the baseline."""
        return not any(
            f.severity >= Severity.ERROR for f in self.new_findings
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": PASS_NAME,
            "ok": self.ok,
            "modules_scanned": self.modules_scanned,
            "rules_run": self.rules_run,
            "elapsed_s": round(self.elapsed_s, 3),
            "new": len(self.new_findings),
            "grandfathered": len(self.grandfathered),
            "stale_baseline_entries": len(self.stale_entries),
            "suppressed": self.suppressed_count,
            "reports": [report.to_dict() for report in self.reports],
        }

    def render(self, verbose: bool = False) -> str:
        lines = [report.render(verbose=verbose) for report in self.reports]
        lines.append(
            f"{PASS_NAME}: {self.modules_scanned} modules, "
            f"{self.rules_run} rules, {len(self.new_findings)} new, "
            f"{len(self.grandfathered)} grandfathered, "
            f"{self.suppressed_count} suppressed "
            f"({self.elapsed_s:.2f}s)"
        )
        return "\n".join(lines)


def _instantiate_rules(
    only: Optional[Sequence[str]] = None,
) -> Tuple[List[LocalRule], List[ProjectRule]]:
    wanted = {rule.upper() for rule in only} if only else None
    if wanted is not None:
        known = {rule_cls.rule_id for rule_cls in ALL_RULES}
        unknown = wanted - known
        if unknown:
            raise ProjectError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
    local: List[LocalRule] = []
    project: List[ProjectRule] = []
    for rule_cls in ALL_RULES:
        if wanted is not None and rule_cls.rule_id not in wanted:
            continue
        rule = rule_cls()
        if isinstance(rule, LocalRule):
            local.append(rule)
        else:
            project.append(rule)  # type: ignore[arg-type]
    return local, project


def run_check(
    root: Path,
    package: Optional[str] = None,
    config: Optional[ProjectConfig] = None,
    baseline_path: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
) -> CheckResult:
    """Run the SA catalog over the tree rooted at ``root``.

    Parameters
    ----------
    root:
        Package directory to analyze (e.g. ``src/repro``).
    package:
        Dotted prefix for module names (default: ``root.name``).
    config:
        Anchor configuration; defaults to :func:`default_config`.
    baseline_path:
        Baseline file; missing file means an empty baseline.
    rules:
        Optional rule-id filter (``["SA003", "SA008"]``).
    """
    started = time.perf_counter()
    config = config if config is not None else default_config()
    project = Project.load(Path(root), config, package=package)
    ctx = CheckContext(project)
    local_rules, project_rules = _instantiate_rules(rules)

    findings: List[RawFinding] = list(run_local_rules(ctx, local_rules))
    for rule in project_rules:
        findings.extend(rule.run(ctx))
    findings.sort(key=lambda f: (f.module, f.line, f.rule, f.subject))

    kept: List[RawFinding] = []
    suppressed = 0
    for finding in findings:
        module = project.modules.get(finding.module)
        if module is not None and module.suppressed(finding.rule, finding.line):
            suppressed += 1
        else:
            kept.append(finding)

    entries = (
        load_baseline(baseline_path) if baseline_path is not None else []
    )
    match: BaselineMatch = apply_baseline(kept, entries)

    reports = _build_reports(project, match)
    return CheckResult(
        reports=reports,
        new_findings=match.new,
        grandfathered=match.grandfathered,
        stale_entries=match.stale,
        suppressed_count=suppressed,
        modules_scanned=sum(1 for _ in project.scanned_modules()),
        rules_run=len(local_rules) + len(project_rules),
        elapsed_s=time.perf_counter() - started,
        raw_findings=kept,
    )


def _build_reports(
    project: Project, match: BaselineMatch
) -> List[AnalysisReport]:
    """One report per module with findings, plus a baseline report."""
    per_module: Dict[str, AnalysisReport] = {}

    def module_report(module_name: str) -> AnalysisReport:
        if module_name not in per_module:
            info = project.modules.get(module_name)
            target = (
                project.display_path(info) if info is not None else module_name
            )
            per_module[module_name] = AnalysisReport(
                target=target, pass_name=PASS_NAME
            )
        return per_module[module_name]

    for finding in match.new:
        module_report(finding.module).add(
            finding.rule,
            finding.severity,
            f"{finding.path}:{finding.line}: {finding.message}",
            subjects=(finding.subject,),
        )
    for finding, entry in match.grandfathered:
        module_report(finding.module).add(
            finding.rule,
            Severity.INFO,
            f"{finding.path}:{finding.line}: {finding.message} "
            f"(grandfathered: {entry.justification})",
            subjects=(finding.subject,),
        )

    reports = [per_module[name] for name in sorted(per_module)]
    if match.stale:
        stale = AnalysisReport(target="baseline", pass_name=PASS_NAME)
        for entry in match.stale:
            stale.add(
                "SA000",
                Severity.WARNING,
                f"stale baseline entry {entry.rule} {entry.module} "
                f"[{entry.subject}] no longer matches any finding — "
                "remove it",
                subjects=(entry.subject,),
            )
        reports.append(stale)
    return reports
