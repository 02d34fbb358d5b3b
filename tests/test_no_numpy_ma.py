"""No command imports `numpy.ma`.

numpy's `unique` and `median` import `numpy.ma` on their first call, about
10 ms in a fresh interpreter, and every CLI command runs in one. Each case
runs a command of the benchmark on its `perfbench/configs` file, read-only
and on a small grid, in a fresh `python -c` and asserts that `numpy.ma` was
never imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "perfbench" / "configs"

CLI = """
import sys
from hjminimax import cli
rc = cli.main(sys.argv[1:])
assert rc == 0, rc
assert "numpy.ma" not in sys.modules
"""

SLICE = """
import sys
from hjminimax import cli, selector
cfg = cli.load_config(sys.argv[1])
spec = cfg["spec"]
seeds = selector.default_seeds(spec, cfg["n_seeds"], t=2.0)
analysis = selector.slice_analysis(spec, 2.0, seeds, step=cfg["step"])
smooth, log = selector.eliminate(analysis.front)
assert len(log) == 5, len(log)
assert "numpy.ma" not in sys.modules
"""


@pytest.mark.parametrize("program, args", [
    (CLI, ["solve", "--config", "convex_burgers.ini", "--grid", "16x32"]),
    (CLI, ["compare", "--config", "convex_burgers.ini", "--grid", "16x32"]),
    (CLI, ["compare", "--config", "qflow.ini", "--grid", "16x16"]),
    (CLI, ["classify", "--config", "convex_two_hump.ini", "--grid", "24x48"]),
    (CLI, ["render", "--config", "swallowtail_two_hump.ini", "--time", "2.0"]),
    (CLI, ["dump-front", "--config", "swallowtail_burgers.ini", "--time", "1.5"]),
    (SLICE, ["swallowtail_two_hump.ini"]),
], ids=["solve", "compare", "compare_qflow", "classify", "render", "dump_front",
        "slice_eliminate"])
def test_command_does_not_import_numpy_ma(program, args, tmp_path):
    args = [str(CONFIGS / a) if a.endswith(".ini") else a for a in args]
    if program is CLI:
        args += ["--out", str(tmp_path)]
    run = subprocess.run([sys.executable, "-c", program, *args], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
