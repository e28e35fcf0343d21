"""Smoke tests: the example scripts run and print what they promise."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestQuickstart:
    def test_runs_and_reports_truth(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "true cardinality: 3" in result.stdout
        # every available technique produces a line
        expected = ["C-SET", "IMPR", "SumRDF", "CS", "WJ", "JSUB", "BS"]
        for technique in expected:
            assert technique in result.stdout


class TestCustomQuery:
    def test_small_pattern(self):
        result = run_example(
            "custom_query_study.py",
            "--pattern", "?s a GraduateStudent . ?s :advisor ?p",
            "--universities", "1",
        )
        assert result.returncode == 0, result.stderr
        assert "true cardinality:" in result.stdout
        assert "signed q-error" in result.stdout


class TestExampleInventory:
    def test_all_examples_have_docstrings_and_main(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 6
        for script in scripts:
            source = script.read_text()
            assert source.lstrip().startswith(
                ("#!/usr/bin/env python3", '"""')
            ), script
            assert '__name__ == "__main__"' in source, script
            assert '"""' in source.split("\n\n")[0] or "Run:" in source
