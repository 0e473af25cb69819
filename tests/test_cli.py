"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "delivered" in out
    assert "forged message accepted: False" in out


def test_lemmas_command(capsys):
    assert main(["lemmas", "--sends", "2", "--depth", "5"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "VIOLATED" not in out
    assert "S_key_secret" in out


def test_attack_command(capsys):
    assert main(["attack", "--attempts", "10"]) == 0
    out = capsys.readouterr().out
    assert "defended" in out
    assert "BREACHED" not in out


def test_resources_command(capsys):
    assert main(["resources"]) == 0
    out = capsys.readouterr().out
    assert "32" in out
    assert "RAMB36" in out


def test_stacks_command(capsys):
    assert main(["stacks", "--ops", "5"]) == 0
    out = capsys.readouterr().out
    assert "TNIC" in out and "RDMA-hw" in out


def test_systems_command(capsys):
    assert main(["systems", "--ops", "3"]) == 0
    out = capsys.readouterr().out
    assert "BFT counter" in out and "tnic" in out


@pytest.fixture
def clean_tree(tmp_path):
    """A small package that lints clean only because its one wall-clock
    read is waived inline.  (The real tree is linted once, by
    ``tests/test_analysis.py``; the CLI tests need a tree, not that one.)"""
    package = tmp_path / "repro" / "sample"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "clock.py").write_text(
        "import time\n\n"
        "def host_now():\n"
        "    return time.time()  # lint: ignore[DET001] host-side helper\n"
    )
    return tmp_path


def test_lint_command_clean_tree(clean_tree, capsys):
    assert main(["lint", str(clean_tree)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_lint_command_json_format(clean_tree, capsys):
    import json

    assert main(["lint", str(clean_tree), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0


def test_lint_command_flags_violations_with_location(tmp_path, capsys):
    fixture = tmp_path / "repro" / "core"
    fixture.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (fixture / "__init__.py").write_text("")
    (fixture / "bad.py").write_text(
        "import random\n"
        "import time\n"
        "from repro.systems.bft import BftCounter\n\n"
        "def proc(sim):\n"
        "    time.sleep(random.random() + time.time())\n"
        "    yield sim.timeout(1.0)\n"
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    for rule in ("DET001", "DET003", "BND001"):
        assert rule in out
    assert "bad.py:6" in out


def test_lint_command_rejects_missing_path(capsys):
    assert main(["lint", "/nonexistent/path.py"]) == 2


def test_lint_command_sarif_format(clean_tree, capsys):
    import json

    assert main(["lint", str(clean_tree), "--format", "sarif"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"] == []

    # With a finding: exit 1, and stdout is still exactly the document.
    (clean_tree / "repro" / "sample" / "bad.py").write_text(
        "import time\nNOW = time.time()\n"
    )
    assert main(["lint", str(clean_tree), "--format", "sarif"]) == 1
    results = json.loads(capsys.readouterr().out)["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["DET001"]


@pytest.mark.parametrize("flag", [
    "--baseline", "--update-baseline", "--prune-baseline", "--dry-run",
    "--sarif", "--tcb-report", "--hotpath-manifest",
])
def test_lint_command_has_one_suppression_and_writes_no_artifacts(flag):
    with pytest.raises(SystemExit) as usage:
        build_parser().parse_args(["lint", flag])
    assert usage.value.code == 2


def test_lint_command_explain_known_and_unknown_rule(capsys):
    assert main(["lint", "--explain", "SEC001"]) == 0
    out = capsys.readouterr().out
    assert "SEC001" in out and "key" in out.lower()
    assert main(["lint", "--explain", "LIV005"]) == 0
    assert "deadline" in capsys.readouterr().out
    assert main(["lint", "--explain", "NOPE999"]) == 2
    err = capsys.readouterr().err
    assert "no such rule: NOPE999" in err
    # The usage hint lists every shipped rule-ID prefix.
    for prefix in ("DET", "BND", "SEC", "LIV"):
        assert prefix in err
    # Retired rules (RACE001-RACE003 and TNT001-TNT002 went whole, LIV001
    # with the last simulator lock) no longer resolve.
    assert main(["lint", "--explain", "RACE001"]) == 2
    assert main(["lint", "--explain", "TNT001"]) == 2
    assert main(["lint", "--explain", "LIV001"]) == 2


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
