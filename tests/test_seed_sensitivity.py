"""Smoke test of scripts/seed_sensitivity.py, the two-tier seed study of a trend."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seed_sensitivity.py"


def test_prints_one_row_per_seed_and_both_tier_summaries(tmp_path):
    out = tmp_path / "down.json"
    done = subprocess.run([sys.executable, str(SCRIPT), "down", "--seeds", "0-1,4",
                           "--epochs", "2", "--json", str(out)],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("seg2 carafe vs strided_conv: epochs=2 lr=0.05")
    assert [line.split()[0] for line in lines[2:5]] == ["0", "1", "4"]
    assert all(len(line.split()) == 7 for line in lines[2:5])
    assert lines[5].startswith("exact: mean diff ")
    assert lines[6].startswith("fast: mean diff ")
    assert lines[7].startswith("fast mean diff inside the exact CI: ")
    payload = json.loads(out.read_text())
    assert payload["seeds"] == [0, 1, 4]
    for tier in ("exact", "fast"):
        summary = payload["summary"][tier]
        assert summary["pairs"] == 3
        assert summary["ci"][0] <= summary["mean_diff"] <= summary["ci"][1]
        assert [row[tier]["diff"] for row in payload["rows"]] == [
            row[tier]["carafe"] - row[tier]["baseline"] for row in payload["rows"]]
