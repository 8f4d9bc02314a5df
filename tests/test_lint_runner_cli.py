"""Linter plumbing: suppressions, reporters (JSON golden), runner, CLI."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.lint import (
    Severity,
    SuppressionIndex,
    all_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_by_id,
)
from repro.cli import main


def dedent(source):
    return textwrap.dedent(source)


# -- suppression comments -----------------------------------------------------


def test_line_suppression_mutes_only_that_line():
    source = dedent(
        """
        total_bits = 10
        a = total_bits / 2  # repro-lint: disable=R001
        b = total_bits / 4
        """
    )
    result = lint_source(source, active_rules=[rule_by_id("R001")])
    assert len(result.findings) == 1
    assert result.findings[0].line == 4
    assert result.suppressed == 1


def test_line_suppression_lists_multiple_rules():
    source = "def f(x=[]):  # repro-lint: disable=R007,R008\n    return x\n"
    result = lint_source(
        source, active_rules=[rule_by_id("R007"), rule_by_id("R008")]
    )
    assert result.findings == []
    assert result.suppressed == 3  # two R007 findings + one R008


def test_file_suppression_and_all_keyword():
    source = dedent(
        """
        # repro-lint: disable-file=R001
        total_bits = 10
        a = total_bits / 2
        b = total_bits / 4
        """
    )
    result = lint_source(source, active_rules=[rule_by_id("R001")])
    assert result.findings == []
    assert result.suppressed == 2
    all_muted = lint_source(
        "def f(x=[]):  # repro-lint: disable=all\n    return x\n"
    )
    assert all_muted.findings == []


# -- R014: stale suppressions and unknown rule ids ---------------------------


def test_r014_flags_suppression_that_matched_nothing():
    result = lint_source("x = 1  # repro-lint: disable=R001\n")
    assert [f.rule_id for f in result.findings] == ["R014"]
    assert "matched no findings" in result.findings[0].message


def test_r014_quiet_when_the_suppression_is_earning_its_keep():
    result = lint_source(
        "total_bits = 10\n"
        "share = total_bits / 2  # repro-lint: disable=R001\n"
    )
    assert result.findings == []
    assert result.suppressed == 1


def test_r014_ignores_docstrings_describing_the_syntax():
    result = lint_source(
        '"""Docs: write `# repro-lint: disable=R001` to mute a line."""\n'
        "x = 1\n"
    )
    assert result.findings == []


def test_r014_not_judged_for_rules_outside_the_active_set():
    # Only R001 runs: a stale R008 suppression cannot be judged fairly.
    result = lint_source(
        "x = 1  # repro-lint: disable=R008\n",
        active_rules=[rule_by_id("R001"), rule_by_id("R014")],
    )
    assert result.findings == []


def test_r014_flags_suppression_naming_an_unknown_rule():
    # A typo or a retired rule id can never match a finding, so it is
    # reported whichever rules run, even beside an id that did match.
    source = (
        "x = 1  # repro-lint: disable=R099\n"
        "y = 2  # repro-lint: disable-file=R011\n"
        "z_bits = 3 / 4  # repro-lint: disable=R001,R005\n"
    )
    for active in (None, [rule_by_id("R001"), rule_by_id("R014")]):
        result = lint_source(source, active_rules=active)
        assert [(f.rule_id, f.line) for f in result.findings] == [
            ("R014", 1),
            ("R014", 2),
            ("R014", 3),
        ]
        assert "unknown rule id(s) R099" in result.findings[0].message
        assert "unknown rule id(s) R011" in result.findings[1].message
        assert "unknown rule id(s) R005" in result.findings[2].message
        assert result.suppressed == 1


def test_suppression_index_parsing():
    index = SuppressionIndex.from_source(
        "x = 1  # repro-lint: disable=R001, r003\n"
        "# repro-lint: disable-file=R008\n"
    )
    assert index.is_suppressed("R001", 1)
    assert index.is_suppressed("R003", 1)
    assert not index.is_suppressed("R001", 2)
    assert index.is_suppressed("R008", 99)


# -- reporters ----------------------------------------------------------------

GOLDEN_SOURCE = "routing_bits = 8\nshare = routing_bits / 2\n"

GOLDEN_REPORT = {
    "version": 1,
    "files_checked": 1,
    "suppressed": 0,
    "counts_by_rule": {"R001": 1},
    "counts_by_severity": {"error": 1},
    "findings": [
        {
            "path": "golden.py",
            "line": 2,
            "col": 8,
            "rule": "R001",
            "severity": "error",
            "message": (
                "true division on bit quantity 'routing_bits'; bit counts "
                "are integers — use `//` or an integer helper (suppress if "
                "this is a deliberate ratio diagnostic)"
            ),
        }
    ],
}


def test_json_reporter_golden_output():
    result = lint_source(
        GOLDEN_SOURCE, path="golden.py", active_rules=[rule_by_id("R001")]
    )
    assert json.loads(render_json(result)) == GOLDEN_REPORT


def test_text_reporter_format_and_summary():
    result = lint_source(
        GOLDEN_SOURCE, path="golden.py", active_rules=[rule_by_id("R001")]
    )
    text = render_text(result)
    assert text.splitlines()[0].startswith("golden.py:2:8: R001 [error]")
    assert "1 finding(s) in 1 file(s) [R001×1]" in text
    clean = lint_source("x = 1\n")
    assert "clean: 0 findings" in render_text(clean)


# -- runner -------------------------------------------------------------------


def test_syntax_error_becomes_r000_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([str(bad)])
    assert result.files_checked == 1
    assert [f.rule_id for f in result.findings] == ["R000"]
    assert result.worst_severity() is Severity.ERROR


def test_runner_walks_directories_deterministically(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("half = 1 / 2\n")
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("def f(:\n")
    result = lint_paths([str(tmp_path)])
    assert result.files_checked == 2  # __pycache__ skipped
    assert result.findings == []  # no bit-named target or operand


DOCUMENTED_RULES = [
    "R001", "R002", "R003", "R004", "R006", "R007", "R008", "R009", "R014",
]


def test_unparseable_file_does_not_stop_the_other_files(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    (tmp_path / "fine.py").write_text(
        "import random\n\ndef f():\n    return random.Random()\n"
    )
    result = lint_paths([str(tmp_path)])
    ids = {finding.rule_id for finding in result.findings}
    assert "R000" in ids and "R004" in ids


def test_registry_has_exactly_the_documented_rules():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == DOCUMENTED_RULES
    for rule in all_rules():
        assert rule.description
        assert rule.rationale


# -- CLI ----------------------------------------------------------------------


def test_cli_lint_clean_tree_exits_zero(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("def f(x: int) -> int:\n    return x\n")
    assert main(["lint", str(clean)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_cli_lint_findings_exit_nonzero_with_structured_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(GOLDEN_SOURCE)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:2:8: R001 [error]" in out
    assert main(["lint", str(bad), "--fail-on", "never"]) == 0


def test_cli_lint_json_format_and_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(GOLDEN_SOURCE)
    report_path = tmp_path / "findings.json"
    assert main(
        ["lint", str(bad), "--format", "json", "--output", str(report_path)]
    ) == 1
    stdout_report = json.loads(capsys.readouterr().out)
    file_report = json.loads(report_path.read_text())
    assert stdout_report == file_report
    assert file_report["counts_by_rule"] == {"R001": 1}
    assert file_report["findings"][0]["rule"] == "R001"


def test_cli_lint_select_subset_of_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(items=[]):\n    return items\n")
    assert main(["lint", str(bad), "--select", "R001"]) == 0
    capsys.readouterr()
    assert main(["lint", str(bad), "--select", "R008"]) == 1
    assert "R008" in capsys.readouterr().out
    assert main(["lint", str(bad), "--select", "R999"]) == 2


def test_cli_list_rules_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in DOCUMENTED_RULES:
        assert rule_id in out
    for retired in ("R005", "R010", "R011", "R012", "R013"):
        assert retired not in out
    assert "rationale:" in out


def test_cli_lint_src_is_clean():
    """The merged tree must lint clean — the PR's acceptance criterion."""
    assert main(["lint", "src"]) == 0


@pytest.mark.parametrize(
    "source, rule",
    [
        ("total_bits = 3 / 1\n", "R001"),
        (
            "def f(r):\n"
            "    if r == DropReason.LINK_DOWN:\n"
            "        return 1\n"
            "    elif r == DropReason.NODE_DOWN:\n"
            "        return 2\n",
            "R002",
        ),
        ("import random\nx = random.choice([1, 2])\n", "R004"),
        ("try:\n    pass\nexcept:\n    pass\n", "R006"),
        ("def f(x):\n    return x\n", "R007"),
        ("def f(x=[]):\n    return x\n", "R008"),
        # The CI smoke's fixtures, one per rule.
        (
            "import random\n\ndef f() -> random.Random:\n"
            "    return random.Random()\n",
            "R004",
        ),
        (
            "def corrupt(graph, ctx):\n    graph._adj_sets = ()\n"
            "    return ctx.distances()\n",
            "R009",
        ),
        (
            "import math\n\ndef table_bits(n: int):\n"
            "    return math.log2(n) + 7\n",
            "R001",
        ),
        ("def f(tracer):\n    tracer.hop(1)\n", "R003"),
        ("x = 1  # repro-lint: disable=R011\n", "R014"),
    ],
)
def test_cli_lint_seeded_violations_fail(tmp_path, source, rule, capsys):
    # Under repro/simulator, so the package-scoped rules (R003) apply.
    bad = tmp_path / "repro" / "simulator" / "seeded.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(source)
    assert main(["lint", str(bad), "--select", rule]) == 1
    assert rule in capsys.readouterr().out


# -- CLI: runs that cannot honestly complete exit 2 -------------------------


def test_unreadable_file_exits_2_with_structured_diagnostic(tmp_path, capsys):
    broken_link = tmp_path / "locked.py"
    broken_link.symlink_to(tmp_path / "does-not-exist")
    assert main(["lint", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "R000" in out
    assert "cannot read file" in out


def test_syntax_error_file_exits_2_with_r000(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert main(["lint", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "R000" in out and "syntax error" in out


def test_empty_directory_exits_2(tmp_path, capsys):
    assert main(["lint", str(tmp_path)]) == 2
    assert "no Python files found" in capsys.readouterr().err
