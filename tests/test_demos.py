"""Smoke test: demos 01-04 run to completion.

Each demo is copied into a temporary directory and run there in a fresh
interpreter, so the ``_out_*`` directory it writes beside itself lands in
that directory. Demo 05 trains a refiner for about a minute and is left out.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import vesseltopo

_DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
_SRC = pathlib.Path(vesseltopo.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_topology_basics.py", "02_synthetic_vessels.py",
                                  "03_metrics_report.py", "04_task_dataset.py"])
def test_demo_exits_0(tmp_path, name):
    shutil.copy(_DEMOS / name, tmp_path / name)
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, name], cwd=tmp_path, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert result.returncode == 0, result.stderr
