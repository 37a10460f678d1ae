"""Each script in scripts/ runs to completion and writes its files."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def run_script(name, tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)


def test_faithful_feasibility(tmp_path):
    res = run_script("faithful_feasibility.py", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "block 3 needs at least 128,424,079,523,840,001 primes" in res.stdout


def test_convergence_ensemble(tmp_path):
    res = run_script("convergence_ensemble.py", tmp_path, "--points", "3")
    assert res.returncode == 0, res.stderr
    csv = tmp_path / "ensemble.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "point,x0,A_final,deviation"
    assert len(lines) == 4
    # the averages are exact Fractions of integer samples: the bytes are fixed
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == \
        "c5dd28891873278193ac227f43dac5f53a43ac61f83938cf27849969ec4e88e4"


def test_run_demo_pipeline(tmp_path):
    res = run_script("run_demo_pipeline.py", tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "out"
    for name in ("ledger.json", "sequence.txt", "blocks.json", "verify.json",
                 "battery.jsonl", "experiment.cfg", "convergence.csv"):
        assert (out / name).stat().st_size > 0, name
    # one line per step: its wall time and the peak RSS after it
    report = re.findall(r"^step ([\w-]+): [\d.]+ s, ru_maxrss [\d.]+ MB$",
                        res.stderr, re.M)
    assert report == ["gen-params", "build-seq", "verify", "ops-test",
                      "simulate"], res.stderr
