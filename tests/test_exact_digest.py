"""Tests of scripts/exact_digest.py, the cross-commit bitwise check: the
hash repeats, follows its seed, and matches the value pinned for 60 cases."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


# The digest of 60 cases at seed 0: a change to any exact-tier bit changes
# it. The softmax normalizer's np.exp takes SIMD paths that may round
# differently in another numpy release, so the value holds only for the
# release it was taken with.
PINNED_NUMPY = "2.4.6"
PINNED = "56d5653d3e98a8d29575eb9c061c4177b63e9e41552aac7ea9597030c96c1931"


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"digest pinned under numpy {PINNED_NUMPY}; "
                           f"np.exp may round differently in {np.__version__}")
def test_digest_matches_the_pinned_value():
    assert _run("--cases", "60", "--seed", "0").split()[0] == PINNED
