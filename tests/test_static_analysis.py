"""Tests for the SA static analyzer (repro.analysis.static).

The fixture tree under ``tests/fixtures/sa_project`` seeds exactly one
violation per rule; the shipped tree must produce zero new findings.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.static import (
    ALL_RULES,
    BaselineEntry,
    ProjectConfig,
    apply_baseline,
    default_config,
    load_baseline,
    run_check,
    rule_catalog,
    save_baseline,
)
from repro.analysis.static.baseline import BaselineError
from repro.analysis.static.project import parse_suppressions
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures" / "sa_project"
SRC_ROOT = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "sa-baseline.json"

ALL_RULE_IDS = [rule_cls.rule_id for rule_cls in ALL_RULES]


def fixture_config() -> ProjectConfig:
    return ProjectConfig(
        worker_entries=("sa_project.cells.compute_cell",),
        worker_allowlist=(),
        key_entries=("sa_project.cache.cache_key",),
        deprecated_apis=(("roundtrip_stream", "verify_roundtrip"),),
        registry_modules=("sa_project.registry",),
        specs_module="sa_project.specs",
        contracts_module="sa_project.contracts",
    )


@pytest.fixture(scope="module")
def fixture_result():
    return run_check(FIXTURE_ROOT, package="sa_project", config=fixture_config())


@pytest.fixture(scope="module")
def shipped_result():
    config = default_config()
    return run_check(
        SRC_ROOT,
        package="repro",
        config=config,
        baseline_path=BASELINE,
    )


# ---------------------------------------------------------------------------
# Every rule fires exactly once on the fixture tree, and nowhere else.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_fires_exactly_once_on_fixture(fixture_result, rule_id):
    hits = [f for f in fixture_result.new_findings if f.rule == rule_id]
    assert len(hits) == 1, (
        f"{rule_id} fired {len(hits)} times: "
        f"{[(f.module, f.line, f.subject) for f in hits]}"
    )


def test_fixture_total_matches_catalog(fixture_result):
    assert len(fixture_result.new_findings) == len(ALL_RULE_IDS)
    assert not fixture_result.ok


def test_fixture_subjects_pin_the_seeded_sites(fixture_result):
    by_rule = {f.rule: f for f in fixture_result.new_findings}
    assert by_rule["SA003"].subject == "SharedHistoryEncoder.history"
    assert by_rule["SA004"].subject == "StickyDefaultsEncoder.encode"
    assert "compute_cell" in by_rule["SA005"].subject
    assert "_fan_out" in by_rule["SA007"].subject
    assert "cache_key" in by_rule["SA008"].subject
    assert "cache_key" in by_rule["SA009"].subject
    assert "cache_key" in by_rule["SA010"].subject
    assert by_rule["SA011"].subject == "roundtrip_stream"
    assert by_rule["SA015"].subject == "badcodec"


def test_registry_completeness_catches_missing_spec(fixture_result):
    # Acceptance criterion: a codec registered without a formal spec is
    # caught statically, so new codec families cannot land half-wired.
    missing_spec = [f for f in fixture_result.new_findings if f.rule == "SA012"]
    assert [f.subject for f in missing_spec] == ["nospec"]
    missing_contract = [
        f for f in fixture_result.new_findings if f.rule == "SA013"
    ]
    assert [f.subject for f in missing_contract] == ["nocontract"]


def test_clean_fixture_classes_stay_quiet(fixture_result):
    subjects = {f.subject for f in fixture_result.new_findings}
    assert not any("GoodEncoder" in s or "GoodDecoder" in s for s in subjects)
    assert "goodcodec" not in subjects


# ---------------------------------------------------------------------------
# The shipped tree is clean (and fast).
# ---------------------------------------------------------------------------


def test_shipped_tree_has_zero_new_findings(shipped_result):
    assert shipped_result.new_findings == []
    assert shipped_result.ok


def test_shipped_tree_baseline_entries_all_match(shipped_result):
    # Stale entries would mean the baseline lists debt that no longer
    # exists — the file must shrink alongside the code.
    assert shipped_result.stale_entries == []
    grandfathered_rules = {e.rule for _, e in shipped_result.grandfathered}
    assert grandfathered_rules == {"SA012"}


def test_full_catalog_runs_fast(shipped_result):
    assert shipped_result.rules_run >= 10
    assert shipped_result.modules_scanned > 50
    assert shipped_result.elapsed_s < 5.0


def test_catalog_covers_four_families():
    families = {entry["family"] for entry in rule_catalog()}
    assert families == {
        "purity",
        "fork-safety",
        "determinism",
        "api-hygiene",
        "registry",
    }
    assert all(entry["rationale"] for entry in rule_catalog())


# ---------------------------------------------------------------------------
# Suppressions and baseline mechanics.
# ---------------------------------------------------------------------------


def test_noqa_parsing():
    source = "\n".join(
        [
            "x = 1",
            "y = 2  # repro: noqa",
            "z = 3  # repro: noqa SA003, SA008",
            "w = 4  # repro: noqa SA011 - reason text",
        ]
    )
    marks = parse_suppressions(source)
    assert 1 not in marks
    assert marks[2] is None  # blanket
    assert marks[3] == frozenset({"SA003", "SA008"})
    assert marks[4] == frozenset({"SA011"})


def test_noqa_suppresses_a_seeded_violation(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "class BusEncoder:\n"
        "    pass\n"
        "\n"
        "class Bad(BusEncoder):\n"
        "    history = []  # repro: noqa SA003 - fixture\n"
        "    cache = {}\n"
    )
    result = run_check(package, package="pkg", config=ProjectConfig())
    assert result.suppressed_count == 1
    assert [f.subject for f in result.new_findings] == ["Bad.cache"]


def test_baseline_roundtrip_and_matching(tmp_path):
    entries = [
        BaselineEntry(
            rule="SA012",
            module="pkg.registry",
            subject="gray",
            justification="extension codec",
        )
    ]
    path = tmp_path / "baseline.json"
    save_baseline(path, entries)
    assert load_baseline(path) == entries
    match = apply_baseline([], entries)
    assert match.stale == entries


def test_baseline_rejects_missing_justification(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "findings": [
                    {
                        "rule": "SA012",
                        "module": "m",
                        "subject": "s",
                        "justification": "  ",
                    }
                ]
            }
        )
    )
    with pytest.raises(BaselineError):
        load_baseline(path)


def test_stale_baseline_entry_reported(tmp_path):
    path = tmp_path / "baseline.json"
    save_baseline(
        path,
        [
            BaselineEntry(
                rule="SA003",
                module="sa_project.codecs",
                subject="NoSuchClass.history",
                justification="obsolete",
            )
        ],
    )
    result = run_check(
        FIXTURE_ROOT,
        package="sa_project",
        config=fixture_config(),
        baseline_path=path,
    )
    assert len(result.stale_entries) == 1
    stale_report = [r for r in result.reports if r.target == "baseline"]
    assert len(stale_report) == 1
    assert stale_report[0].warnings


def test_rule_filter(tmp_path):
    result = run_check(
        FIXTURE_ROOT,
        package="sa_project",
        config=fixture_config(),
        rules=["SA003"],
    )
    assert [f.rule for f in result.new_findings] == ["SA003"]


# ---------------------------------------------------------------------------
# CLI behaviour (exit codes, JSON shape).
# ---------------------------------------------------------------------------


def test_cli_exits_zero_on_shipped_tree(capsys):
    assert main(["check"]) == 0
    assert "0 new" in capsys.readouterr().out


def test_cli_exits_nonzero_on_fixture_tree(tmp_path, capsys):
    code = main(
        [
            "check",
            "--root",
            str(FIXTURE_ROOT),
            "--baseline",
            str(tmp_path / "missing.json"),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "SA003" in out


def test_cli_json_output(capsys):
    assert main(["check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["pass"] == "static"
    assert payload["rules_run"] >= 10
    assert payload["new"] == 0


def test_cli_list_rules(capsys):
    assert main(["check", "--list-rules", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    listed = [entry["rule"] for entry in payload["rules"]]
    assert listed == ALL_RULE_IDS


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main(["check", "--rules", "SA999"]) == 2


def test_cli_check_is_fast():
    started = time.perf_counter()
    assert main(["check", "--json"]) == 0
    assert time.perf_counter() - started < 5.0
