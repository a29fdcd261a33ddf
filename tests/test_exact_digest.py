"""Smoke test of scripts/exact_digest.py, the cross-commit bitwise check."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "exact_digest.py"


def _run(*args: str) -> str:
    done = subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_digest_repeats_and_follows_the_seed():
    first = _run("--cases", "4", "--seed", "3")
    assert re.fullmatch(r"[0-9a-f]{64}  4 cases, seed 3\n", first)
    assert _run("--cases", "4", "--seed", "3") == first
    assert _run("--cases", "4", "--seed", "4").split()[0] != first.split()[0]
