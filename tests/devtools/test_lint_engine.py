"""Tests of the reprolint engine: rules, suppressions, baseline, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import lint
from repro.devtools.checkers import RULES, rule_catalogue
from repro.devtools.lint import (
    PARSE_ERROR_RULE,
    apply_baseline,
    iter_source_files,
    lint_file,
    load_baseline,
    main,
    suppressed_codes,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_codes(name: str) -> list[str]:
    """Rule codes firing on a fixture, linted under a tests-neutral path.

    The fixtures physically live under ``tests/``, where several rules are
    deliberately lenient — linting them under their bare file name exercises
    the rules as they apply to library code.
    """
    return [v.rule for v in lint_file(FIXTURES / name, display_path=name)]


# --------------------------------------------------------------------------- #
# rule coverage: each rule's good and bad fixtures
# --------------------------------------------------------------------------- #
def test_rule_catalogue_is_complete() -> None:
    codes = [rule.code for rule in RULES]
    assert codes == sorted(codes), "rules should be registered in code order"
    assert len(set(codes)) == len(codes)
    catalogue = rule_catalogue()
    assert set(catalogue) == set(codes)
    assert all(description for description in catalogue.values())


def test_rng_bad_fixture() -> None:
    codes = fixture_codes("rng_bad.py")
    assert codes.count("REPRO101") == 1
    assert codes.count("REPRO102") == 2
    assert codes.count("REPRO103") == 2  # the random import + the time seed
    assert not set(codes) - {"REPRO101", "REPRO102", "REPRO103"}


def test_rng_good_fixture_is_clean() -> None:
    assert fixture_codes("rng_good.py") == []


def test_rng_rules_relax_inside_tests() -> None:
    # the same source under a tests/ path: only the global-seed rule remains
    codes = [
        v.rule
        for v in lint_file(FIXTURES / "rng_bad.py", display_path="tests/rng_bad.py")
    ]
    assert codes == ["REPRO101"]


def test_oracle_bad_fixture() -> None:
    codes = fixture_codes("oracle_bad.py")
    assert codes.count("REPRO201") == 3  # support_counts, attack_many, accumulator
    # OverridingOracle misses both kernels, KernelLessOracle misses both
    assert codes.count("REPRO202") == 4
    assert not set(codes) - {"REPRO201", "REPRO202"}


def test_oracle_good_fixture_is_clean() -> None:
    assert fixture_codes("oracle_good.py") == []


def test_oracle_kernel_rule_relaxes_inside_tests_but_final_rule_does_not() -> None:
    codes = [
        v.rule
        for v in lint_file(
            FIXTURES / "oracle_bad.py", display_path="tests/test_oracle_bad.py"
        )
    ]
    assert codes == ["REPRO201", "REPRO201", "REPRO201"]


def test_cellparams_bad_fixture() -> None:
    violations = lint_file(FIXTURES / "cellparams_bad.py", display_path="cellparams_bad.py")
    assert [v.rule for v in violations] == ["REPRO301", "REPRO301"]
    messages = " ".join(v.message for v in violations)
    assert "chunk_size" in messages and "amortize_nk" in messages


def test_cellparams_good_fixture_is_clean() -> None:
    assert fixture_codes("cellparams_good.py") == []


def test_seam_bad_fixture() -> None:
    codes = fixture_codes("seam_bad.py")
    assert codes.count("REPRO401") == 2  # bare and module-qualified SQLiteCellStore(...)
    assert codes.count("REPRO402") == 1
    assert codes.count("REPRO501") == 1
    assert not set(codes) - {"REPRO401", "REPRO402", "REPRO501"}


def test_seam_good_fixture_is_clean() -> None:
    assert fixture_codes("seam_good.py") == []


def test_silent_bad_fixture() -> None:
    violations = lint_file(FIXTURES / "silent_bad.py", display_path="silent_bad.py")
    codes = [v.rule for v in violations]
    assert codes == ["REPRO502"] * 4
    messages = " ".join(v.message for v in violations)
    assert "bare except" in messages
    assert "silently discards" in messages


def test_silent_good_fixture_is_clean() -> None:
    assert fixture_codes("silent_good.py") == []


def test_kernelimport_bad_fixture() -> None:
    violations = lint_file(
        FIXTURES / "kernelimport_bad.py", display_path="kernelimport_bad.py"
    )
    codes = [v.rule for v in violations]
    assert codes == ["REPRO601"] * 3
    messages = " ".join(v.message for v in violations)
    assert "get_backend()" in messages


def test_kernelimport_good_fixture_is_clean() -> None:
    assert fixture_codes("kernelimport_good.py") == []


def test_kernelimport_rule_exempts_tests_and_registry() -> None:
    for display_path in (
        "tests/test_kernelimport_bad.py",
        "src/repro/kernels/__init__.py",
    ):
        codes = [
            v.rule
            for v in lint_file(FIXTURES / "kernelimport_bad.py", display_path=display_path)
        ]
        assert codes == []


def test_kernelimport_rule_catches_relative_forms(tmp_path: Path) -> None:
    source = (
        "from ..kernels import numba_backend\n"
        "from ..kernels.numpy_backend import histogram_product\n"
        "from repro.kernels import get_backend\n"
    )
    path = tmp_path / "tree.py"
    path.write_text(source)
    codes = [v.rule for v in lint_file(path, display_path="src/repro/ml/tree.py")]
    assert codes == ["REPRO601"] * 2


def test_silent_rule_applies_inside_tests_too() -> None:
    codes = [
        v.rule
        for v in lint_file(
            FIXTURES / "silent_bad.py", display_path="tests/test_silent_bad.py"
        )
    ]
    assert codes == ["REPRO502"] * 4


def test_violations_carry_location_and_content() -> None:
    violations = lint_file(FIXTURES / "seam_bad.py", display_path="seam_bad.py")
    v = next(v for v in violations if v.rule == "REPRO402")
    assert v.path == "seam_bad.py"
    assert v.line > 0 and v.col > 0
    assert "json.dumps(config)" in v.content


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #
def test_suppression_comment_parsing() -> None:
    assert suppressed_codes("x = 1") is None
    assert suppressed_codes("x = f()  # reprolint: disable") == set()
    assert suppressed_codes("x = f()  # reprolint: disable=REPRO102") == {"REPRO102"}
    assert suppressed_codes("x  # reprolint: disable=REPRO101, REPRO102") == {
        "REPRO101",
        "REPRO102",
    }


def test_suppressed_fixture() -> None:
    violations = lint_file(FIXTURES / "suppressed.py", display_path="suppressed.py")
    # the matching-code and blanket suppressions silence their lines; the
    # wrong-code suppression does not
    assert [v.rule for v in violations] == ["REPRO102"]
    assert "wrong_code" not in violations[0].content  # anchored on the call line


# --------------------------------------------------------------------------- #
# baseline round-trip
# --------------------------------------------------------------------------- #
def test_baseline_round_trip(tmp_path: Path) -> None:
    violations = lint_file(FIXTURES / "rng_bad.py", display_path="rng_bad.py")
    assert violations
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, violations)

    baseline = load_baseline(baseline_path)
    fresh, matched = apply_baseline(violations, baseline)
    assert fresh == []
    assert matched == len(violations)


def test_baseline_absorbs_each_entry_once(tmp_path: Path) -> None:
    violations = lint_file(FIXTURES / "rng_bad.py", display_path="rng_bad.py")
    one = [violations[0]]
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, one)
    # a second identical occurrence is NOT grandfathered
    fresh, matched = apply_baseline(one + one, load_baseline(baseline_path))
    assert matched == 1
    assert fresh == one


def test_missing_baseline_is_empty(tmp_path: Path) -> None:
    assert load_baseline(tmp_path / "nope.json") == {}


def test_malformed_baseline_raises(tmp_path: Path) -> None:
    path = tmp_path / "bad.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)


# --------------------------------------------------------------------------- #
# discovery
# --------------------------------------------------------------------------- #
def test_directory_walk_skips_fixture_dirs(tmp_path: Path) -> None:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ok.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "fixtures").mkdir()
    (tmp_path / "pkg" / "fixtures" / "bad.py").write_text("x = 2\n", encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "c.py").write_text("x = 3\n", encoding="utf-8")
    found = [p.name for p in iter_source_files([tmp_path])]
    assert found == ["ok.py"]


def test_explicit_file_argument_is_always_linted(tmp_path: Path) -> None:
    fixture = tmp_path / "fixtures" / "direct.py"
    fixture.parent.mkdir()
    fixture.write_text("x = 1\n", encoding="utf-8")
    assert list(iter_source_files([fixture])) == [fixture]


def test_syntax_error_reports_parse_rule(tmp_path: Path) -> None:
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    violations = lint_file(broken)
    assert [v.rule for v in violations] == [PARSE_ERROR_RULE]


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_clean_tree_exits_zero(capsys: pytest.CaptureFixture) -> None:
    code = main(["--no-baseline", str(REPO_ROOT / "src")])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "reprolint: clean" in out


def test_cli_violations_exit_one_with_rule_and_location(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = tmp_path / "naked.py"
    bad.write_text(
        "import numpy as np\n\n\ndef f():\n    return np.random.default_rng()\n",
        encoding="utf-8",
    )
    code = main(["--no-baseline", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REPRO102" in out
    assert f"{bad}:5:" in out  # file:line of the violation


def test_cli_json_format_schema(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    bad = tmp_path / "naked.py"
    bad.write_text(
        "import numpy as np\nrng = np.random.default_rng()\n", encoding="utf-8"
    )
    code = main(["--no-baseline", "--format", "json", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["version"] == lint.REPORT_VERSION
    assert report["files_checked"] == 1
    assert report["counts"] == {"REPRO102": 1}
    assert set(report["rules"]) == {rule.code for rule in RULES}
    (violation,) = report["violations"]
    assert set(violation) == {"path", "line", "col", "rule", "name", "message"}
    assert violation["rule"] == "REPRO102"
    assert violation["line"] == 2


def test_cli_write_baseline_then_clean(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = tmp_path / "naked.py"
    bad.write_text(
        "import numpy as np\nrng = np.random.default_rng()\n", encoding="utf-8"
    )
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--write-baseline", str(bad)]) == 0
    capsys.readouterr()
    # grandfathered: the same tree now lints clean against the baseline
    assert main(["--baseline", str(baseline), str(bad)]) == 0
    # a second violation is fresh and still fails
    bad.write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
        "rng2 = np.random.default_rng()\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["--baseline", str(baseline), str(bad)]) == 1


def test_cli_usage_errors_exit_two(capsys: pytest.CaptureFixture) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["definitely/not/a/path.py"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["--no-baseline", "--write-baseline"])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.code in out
