"""Smoke test of scripts/compare_operators.py, the slot-roster comparison."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_operators.py"


@pytest.mark.parametrize("direction, header, rows", [
    ("up", "super_res size=16 sigma=2 epochs=2 lr=0.15 seeds=(0,)",
     ("carafe", "nearest_plus_conv", "bilinear_plus_conv", "transposed_conv")),
    ("down", "seg2 size=16 sigma=2 epochs=2 lr=0.05 seeds=(0,)",
     ("carafe", "strided_conv", "max_pool", "avg_pool")),
])
def test_prints_header_and_one_row_per_operator(direction, header, rows):
    done = subprocess.run([sys.executable, str(SCRIPT), direction,
                           "--epochs", "2", "--seeds", "0"],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == header
    assert lines[1].split() == ["operator", "mean", "sd", "per-seed",
                                "PSNR" if direction == "up" else "IoU"]
    assert [line.split()[0] for line in lines[2:]] == list(rows)
    assert all(len(line.split()) == 4 for line in lines[2:])
