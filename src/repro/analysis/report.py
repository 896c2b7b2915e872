"""Findings and reports shared by every static-analysis pass.

Each pass (:mod:`repro.analysis.netlint`, :mod:`repro.analysis.activity`,
:mod:`repro.analysis.contracts`) emits :class:`Finding` records — a stable
rule id, a severity, a human-readable message and the names of the offending
objects — collected into an :class:`AnalysisReport` per analysis target.
Reports render as text (the ``repro-bus lint`` default) or as JSON-ready
dictionaries (``repro-bus lint --json``), and an error-level finding anywhere
turns the CLI exit code nonzero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Finding severity, ordered so ``max()`` yields the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a static pass.

    Attributes
    ----------
    rule:
        Stable rule identifier (``NL001``, ``CC004``, ``AC001`` …) — the key
        under which the rule is documented in ``docs/analysis.md``.
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description of what is wrong and where.
    subjects:
        Names of the offending objects (net names, gate names, codec names).
    data:
        Optional machine-readable payload (JSON-serializable), e.g. the
        ready-to-run counterexample replay attached by the formal pass.
        Rendered only in the JSON output, never in the text form.
    """

    rule: str
    severity: Severity
    message: str
    subjects: Tuple[str, ...] = ()
    data: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        result: Dict[str, object] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "subjects": list(self.subjects),
        }
        if self.data is not None:
            result["data"] = self.data
        return result

    def render(self) -> str:
        subjects = f" [{', '.join(self.subjects)}]" if self.subjects else ""
        return f"{self.severity!s:>7} {self.rule}: {self.message}{subjects}"


@dataclass
class AnalysisReport:
    """All findings of one pass over one target (netlist, codec, …)."""

    target: str
    pass_name: str
    findings: List[Finding] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: Severity,
        message: str,
        subjects: Iterable[str] = (),
        data: Optional[Dict[str, object]] = None,
    ) -> Finding:
        finding = Finding(rule, severity, message, tuple(subjects), data)
        self.findings.append(finding)
        return finding

    def extend(self, other: "AnalysisReport") -> None:
        self.findings.extend(other.findings)

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when the target carries no error-level findings."""
        return not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "pass": self.pass_name,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self, verbose: bool = False) -> str:
        """Text rendering; ``verbose`` includes info-level findings."""
        shown = [
            f
            for f in self.findings
            if verbose or f.severity != Severity.INFO
        ]
        status = "ok" if self.ok else "FAIL"
        lines = [f"{self.pass_name}: {self.target} — {status} "
                 f"({len(self.errors)} errors, {len(self.warnings)} warnings)"]
        lines.extend("  " + f.render() for f in shown)
        return "\n".join(lines)


def summarize(reports: Iterable[AnalysisReport]) -> Dict[str, int]:
    """Aggregate finding counts across reports (for the CLI footer)."""
    totals = {"targets": 0, "errors": 0, "warnings": 0, "info": 0}
    for report in reports:
        totals["targets"] += 1
        totals["errors"] += len(report.errors)
        totals["warnings"] += len(report.warnings)
        totals["info"] += len(report.by_severity(Severity.INFO))
    return totals


