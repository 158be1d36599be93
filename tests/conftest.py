"""Shared pytest hooks: surface the acceptance criterion verdicts; run code
in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for idx, name, ok in sorted(results):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {idx} {verdict} {name}")


@pytest.fixture
def fresh_python():
    """Run `python -c code *args` in a new interpreter that imports the same
    package sources as the suite; returns its stdout, asserting exit 0.

    The suite's own process has long imported everything any test needed, so
    only a new interpreter sees what importing the package loads by itself.
    """
    import liouville_ep

    src = str(Path(liouville_ep.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}

    def run(code: str, *args: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
