"""Each differential digest script prints the digest that tests/digests.txt
holds for it, so a change that alters the fabric's schedules, the planner's
plans or the engine's executions fails here, naming the script."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import REPO

TESTS = REPO / "tests"
EXPECTED = [line.split() for line in (TESTS / "digests.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("script, digest", EXPECTED, ids=[s for s, _ in EXPECTED])
def test_digest_script_prints_its_committed_digest(script, digest):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-W", "error", str(TESTS / script)],
                            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == digest, f"{script}: update tests/digests.txt only on purpose"
