"""The package namespace: every module's public names, loaded on first use."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import wassrec

from conftest import ROOT

# the order of wassrec.__all__
MODULES = ("exceptions", "transport", "wfilter", "wcf", "dataio", "metrics")


def _modules():
    return [importlib.import_module("wassrec." + name) for name in MODULES]


def test_all_is_the_module_lists_in_order():
    names = [name for module in _modules() for name in module.__all__]
    assert wassrec.__all__ == [*names, "__version__"]
    assert len(set(names)) == len(names)  # no name is exported by two modules


def test_each_name_is_its_modules_own_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(wassrec, name) is getattr(module, name), name


def test_dir_lists_every_name():
    assert {*wassrec.__all__, *MODULES} <= set(dir(wassrec))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wassrec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wassrec.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "FORMATS"])
def test_other_names_raise_attribute_error(name):
    # FORMATS is dataio's, but not in its __all__
    with pytest.raises(AttributeError, match="module 'wassrec' has no attribute %r" % name):
        getattr(wassrec, name)


def test_import_loads_modules_on_first_use():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, wassrec; loaded = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'wassrec'); print(loaded()); "
            "from wassrec import infer_cold; print(loaded()); "
            "print(wassrec.metrics.__name__); print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # wfilter with the transport and exceptions modules it imports, then
    # a module read by its name, with the dataio module it imports
    solvers = ["wassrec", "wassrec.exceptions", "wassrec.transport", "wassrec.wfilter"]
    assert proc.stdout.splitlines() == [str(["wassrec"]), str(solvers), "wassrec.metrics",
                                        str(sorted(solvers + ["wassrec.dataio",
                                                              "wassrec.metrics"]))]


def test_imports_only_the_standard_library_and_numpy():
    # every import statement of the package, function-level ones
    # included: NumPy is the only runtime dependency
    allowed = {*sys.stdlib_module_names, "numpy"}
    outside = []
    for path in sorted((ROOT / "src" / "wassrec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_benchmark_imports_resolve():
    # the benchmark harness imports public names and wraps every function
    # of each module's __all__; a name it needs that the package drops
    # fails here, in a fresh interpreter, without running the benchmark
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c",
                           "import checks, tracer; tracer.install(tracer.Tracer())"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
