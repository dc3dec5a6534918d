"""Every top-level import of a chi_exit module is read by that module,
every private top-level function of the package is called from it, and
every field of its dataclasses is read somewhere."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chi_exit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chi_exit"


def _unused_imports(source: str):
    """Names bound by top-level imports that the module never loads; the
    entries of an ``__all__`` written as a list or tuple literal count as
    loaded, and a computed ``__all__`` marks no name as loaded."""
    tree = ast.parse(source)
    bound = set()
    read = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.Assign) and isinstance(
                node.value, (ast.List, ast.Tuple)) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    read.update(node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load))
    return sorted(bound - read)


def test_scan_finds_an_unused_import():
    source = ("import os\nimport scipy.sparse as sp\n"
              "from typing import List, Tuple\n"
              "from .x import a, b\n"
              "__all__ = ['a']\n"
              "def f() -> List[int]:\n    return sp.eye(2)\n")
    assert _unused_imports(source) == ["Tuple", "b", "os"]


def test_scan_reads_no_name_from_a_computed_all():
    source = ("import os\nfrom .x import a\n"
              "_HOME = {'a': 'x'}\n__all__ = list(_HOME)\n")
    assert _unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_top_level_import_is_read(path):
    assert _unused_imports(path.read_text()) == []


def _dead_helpers(sources):
    """Top-level ``_private`` functions of the modules in ``sources``
    (module name -> text) that no module names outside their own body."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    named = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                ref = (node.id if isinstance(node, ast.Name)
                       else getattr(node, "attr", None))
                if ref is not None and ref != own:
                    named.add(ref)
    return sorted("%s.%s" % (mod, node.name)
                  for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and node.name not in named)


def test_scan_finds_a_dead_helper():
    sources = {"a": "def _used():\n    return 1\n"
                    "def _dead(n):\n    return _dead(n - 1)\n",
               "b": "from . import a\ndef f():\n    return a._used()\n"}
    assert _dead_helpers(sources) == ["a._dead"]


def test_every_private_function_is_called():
    assert _dead_helpers({path.stem: path.read_text()
                          for path in SRC.glob("*.py")}) == []


def _unread_fields(sources, readers):
    """``module.Class.field`` of each field of a dataclass in ``sources``
    (module name -> text) that no attribute load in ``readers`` (texts)
    reads: state written and never read back by name."""
    read = {node.attr for text in readers for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted("%s.%s.%s" % (mod, top.name, stmt.target.id)
                  for mod, text in sources.items()
                  for top in ast.parse(text).body
                  if isinstance(top, ast.ClassDef)
                  and any(getattr(getattr(d, "func", d), "id", None)
                          == "dataclass" for d in top.decorator_list)
                  for stmt in top.body
                  if isinstance(stmt, ast.AnnAssign)
                  and stmt.target.id not in read)


def test_scan_finds_an_unread_field():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    kept: int\n"
              "    echo: str = 'x'\n    def f(self):\n"
              "        return self.kept\n"
              "@dataclass\nclass B:\n    value: int\n"
              "class C:\n    plain: int\n")
    reader = "def g(b):\n    b.echo = 1\n    return b.value\n"
    assert _unread_fields({"m": source}, [source, reader]) == ["m.A.echo"]


def test_every_dataclass_field_is_read():
    # a field that nothing reads by name is an echo of its caller
    readers = [path.read_text() for part in ("src/chi_exit", "tests", "demos")
               for path in sorted((ROOT / part).glob("*.py"))]
    assert _unread_fields({path.stem: path.read_text()
                           for path in SRC.glob("*.py")}, readers) == []


def _places_naming(sources, name):
    """``module.function`` of each top-level definition of ``sources``
    (module name -> text) whose body names ``name``."""
    return sorted({"%s.%s" % (mod, top.name)
                   for mod, text in sources.items()
                   for top in ast.parse(text).body
                   if hasattr(top, "name")
                   for node in ast.walk(top)
                   if (node.id if isinstance(node, ast.Name)
                       else getattr(node, "attr", None)) == name})


def test_the_stepping_kernel_has_one_dispatch():
    # every diffusion ensemble reaches the kernel through sde._chunk, so
    # chunking, stream keys and stops are decided in one place
    assert _places_naming({path.stem: path.read_text()
                           for path in SRC.glob("*.py")},
                          "_run") == ["sde._chunk"]


def test_one_place_starts_worker_processes():
    # every diffusion ensemble reaches a process pool through sde._chunked,
    # so a second task runner with its own fallback fails here
    assert _places_naming({path.stem: path.read_text()
                           for path in SRC.glob("*.py")},
                          "ProcessPoolExecutor") == ["sde._chunked"]


def test_the_run_sampler_is_built_at_load():
    # load_config builds the run's core-hitting sampler once, beside its
    # dynamics and grid, so its box is checked before any work
    assert _places_naming({"cli": (SRC / "cli.py").read_text()},
                          "mc_hitting_membership") == ["cli.load_config"]


def test_the_cli_formats_numbers_in_one_place():
    # every printed or written figure and every value of the config hash
    # goes through _fmt (a numeric CSV column through _column_text, its
    # one-pass twin)
    assert _places_naming({"cli": (SRC / "cli.py").read_text()},
                          "repr") == ["cli._column_text", "cli._fmt"]


def test_every_public_name_exists():
    # the scan above reads no name from the computed __all__; each name
    # must be the object its table row's module defines, so a stale or
    # misplaced row fails
    wrong = []
    for name in chi_exit.__all__:
        home = importlib.import_module("chi_exit." + chi_exit._HOME[name])
        obj = getattr(chi_exit, name, None)
        if (obj is None or obj is not vars(home).get(name)
                or obj.__module__ != home.__name__):
            wrong.append(name)
    assert wrong == []


#: A fresh interpreter that reports, for the lazy public surface, which of
#: numpy and scipy each step has loaded and what it found.
_LAZY_SURFACE = """
import json, sys
def loaded():
    return ["numpy" in sys.modules, "scipy" in sys.modules]
import chi_exit
seen = {"import": loaded()}
from chi_exit import benchmark_potential
seen["potential"] = loaded()
try:
    chi_exit.nope
    seen["nope"] = "found"
except AttributeError as err:
    seen["nope"] = str(err)
from chi_exit import cli
seen["cli"] = cli.__name__
seen["dir"] = sorted(set(chi_exit.__all__) - set(dir(chi_exit)))
print(json.dumps(seen))
"""


def test_public_names_load_their_module_on_first_read():
    # module sets, not import times: import chi_exit binds only the table,
    # and a name loads its own module with what that module imports
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", _LAZY_SURFACE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == {
        "import": [False, False],
        "potential": [True, False],
        "nope": "module 'chi_exit' has no attribute 'nope'",
        "cli": "chi_exit.cli",
        "dir": [],
    }


#: A fresh interpreter that reports whether scipy.optimize is loaded after
#: the package's imports, after a PCCA+ fit, and after a LAD regression.
_OPTIMIZE_LOADED = """
import json, sys
import chi_exit, chi_exit.cli
from chi_exit import (RegularGrid, benchmark_potential, build_sqrt_generator,
                      eigensolve, pcca_multi, regress)
seen = ["scipy.optimize" in sys.modules]
pot = benchmark_potential()
gen = build_sqrt_generator(pot, RegularGrid(20, 20, pot.domain), 1.0)
pcca_multi(eigensolve(gen, 3), 3)
seen.append("scipy.optimize" in sys.modules)
regress([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], "lad")
seen.append("scipy.optimize" in sys.modules)
print(json.dumps(seen))
"""


def test_only_a_lad_fit_loads_scipy_optimize():
    # module sets, not import times: PCCA+ runs on the package's own
    # Nelder-Mead, and only regress's LAD branch imports linprog
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", _OPTIMIZE_LOADED], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [False, False, True]


#: A fresh interpreter that runs the four rate routes, the holding-time
#: comparison and the validation on small configs, then prints their exit
#: codes and which of scipy.special and scipy.sparse.csgraph are loaded.
_RUNS_LOADED = """
import json, sys
from chi_exit import cli
grid, idea4, validate, out = sys.argv[1:]
runs = [("idea1", grid), ("idea2", grid), ("idea3", grid),
        ("compare-mht", grid), ("idea4", idea4), ("validate", validate)]
codes = [cli.main([command, "--config", cfg, "--out", out + "/" + command])
         for command, cfg in runs]
print(json.dumps([codes, [name in sys.modules for name in
                          ("scipy.special", "scipy.sparse.csgraph")]]))
"""


def test_no_run_loads_scipy_special_or_csgraph(tmp_path):
    # module sets, not import times: the Chebyshev weights and the cell
    # components are the package's own, so scipy.sparse and
    # scipy.sparse.linalg are all of scipy that these runs load
    configs = {
        "grid": "grid.nx = 16\ngrid.ny = 16\n"
                "membership.core_weight_threshold = 0.02\n",
        "idea4": "idea4.n_points = 6\nmembership.n_traj = 10\n"
                 "membership.max_steps = 15\nidea4.n_traj = 8\n",
        "validate": "grid.nx = 20\ngrid.ny = 20\nmembership.n_traj = 15\n"
                    "membership.max_steps = 25\nvalidate.n_starts = 5\n"
                    "validate.n_traj = 6\nvalidate.horizon_steps = 200\n",
    }
    paths = []
    for name, text in configs.items():
        paths.append(tmp_path / (name + ".cfg"))
        paths[-1].write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", _RUNS_LOADED]
                         + [str(path) for path in paths] + [str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[0] * 6,
                                                       [False, False]]
