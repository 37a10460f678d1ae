"""What the library needs at run time: its imports match the declared
dependencies, and a full pipeline run loads neither scipy nor numpy.ma."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")    # stdlib from Python 3.11
    names = set()
    for path in sorted((ROOT / "src" / "primegrid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    third_party = names - set(sys.stdlib_module_names)
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[\w.-]+", d).group() for d in declared}
    assert third_party == {"numpy"}


_PIPELINE = """
import sys
from pathlib import Path

from primegrid import cli

Path("run.cfg").write_text("system=rotation\\nalpha=golden\\nf_lo=0\\n"
                           "f_hi=1/2\\nx0=random\\nseed=20250809\\n")
steps = [
    ["gen-params", "--horizon", "6", "--out", "ledger.json"],
    ["build-seq", "--ledger", "ledger.json", "--out", "seq.txt"],
    ["verify", "--ledger", "ledger.json", "--out", "verify.json"],
    ["ops-test", "--seed", "20250809", "--trials", "5", "--out", "b.jsonl"],
    ["simulate", "--config", "run.cfg", "--ledger", "ledger.json",
     "--out", "conv.csv"],
]
print(*[cli.main(argv) for argv in steps])
print(*sorted(m for m in sys.modules
              if m.split(".")[0] == "scipy"
              or m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_pipeline_loads_no_scipy_and_no_numpy_ma(tmp_path):
    # scipy is a test-only dependency; numpy.ma is loaded lazily, by
    # np.unique without return_* among others, so a load would land in a
    # timed step
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", _PIPELINE], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    codes, loaded = res.stdout.split("\n")[:2]
    assert codes == "0 0 0 0 0"
    assert loaded == ""
