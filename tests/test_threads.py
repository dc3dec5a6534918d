"""Importing chi_exit leaves one BLAS thread per process unless the caller
has set the thread variables."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import chi_exit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: A fresh interpreter that imports chi_exit before numpy and reports the
#: thread variables and the thread count of each bundled OpenBLAS.
_REPORT = """
import json, os, sys
import chi_exit
import numpy, scipy, scipy.linalg
from environment import _openblas
print(json.dumps({"env": {v: os.environ.get(v) for v in sys.argv[1:]},
                  "threads": [_openblas(m)["threads"]
                              for m in (numpy, scipy)]}))
"""


def _fresh_import(monkeypatch, preset):
    """What ``_REPORT`` prints in an interpreter whose environment holds
    none of the thread variables but those of ``preset``."""
    # the environment module records these variables and reads the thread
    # count of numpy's and scipy's OpenBLAS builds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from environment import _THREAD_VARS, _openblas

    if _openblas(np) is None or _openblas(scipy) is None:
        pytest.skip("numpy or scipy bundles no OpenBLAS")
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(chi_exit.__file__).parents[1]), str(PERFBENCH)])
    run = subprocess.run([sys.executable, "-c", _REPORT, *_THREAD_VARS],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_import_sets_one_blas_thread(monkeypatch):
    report = _fresh_import(monkeypatch, {})
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1",
                             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert report["threads"] == [1, 1]


def test_preset_thread_count_is_kept(monkeypatch):
    report = _fresh_import(monkeypatch, {"OPENBLAS_NUM_THREADS": "3"})
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "3",
                             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
