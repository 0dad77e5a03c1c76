"""Source hygiene: unused imports, the public names and who loads them,
which module may call the batch kernels or write files, and that the demos
and the benchmark still import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "revcirc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_dead_names():
    source = "import os, numpy as np\nfrom typing import Sequence\nnp.zeros(1)\n"
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


SUBMODULES = [m.removesuffix(".py") for m in MODULES if m != "cli.py"]


def test_package_exports_the_union_of_submodule_lists():
    """`revcirc.__all__` is the sorted union of the five submodules' lists
    plus `__version__`; no name is listed twice, and every listed name
    resolves on its module and is bound by `from revcirc import *`."""
    import importlib

    import revcirc

    listed = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"revcirc.{name}")
        for public in module.__all__:
            assert public not in listed, (public, listed.get(public), name)
            listed[public] = name
            assert hasattr(module, public), (name, public)
    exported = set(revcirc.__all__)
    assert sorted(exported ^ {*listed, "__version__"}) == []  # listed on one side only
    assert revcirc.__all__ == sorted(exported)
    namespace = {}
    exec("from revcirc import *", namespace)
    assert set(revcirc.__all__) <= namespace.keys()


def identifiers(source: str) -> set[str]:
    """Every name a module binds, reads or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


# The public names that no module of src/ but their own, no demo and no
# benchmark module loads; each is listed with why it stays public.
UNCALLED_PUBLIC_NAMES = {
    # return types, whose fields callers read
    "ConvergenceSeries", "FitnessValue", "TruthTableTrace",
    # operators and oracles that tests/test_acceptance.py and the exact
    # fitness laws (ROADMAP item H) use
    "mutate", "neighborhood_size", "to_permutation", "rms_error",
    # one line of the circuit text format, which `parse_circuits` wraps
    "parse_circuit",
}


def test_every_public_name_is_loaded_outside_its_module_or_listed():
    """A public name that only its own module and the tests load is dead
    weight unless it is listed, with its reason, in `UNCALLED_PUBLIC_NAMES`."""
    import importlib

    sources = {p: identifiers(p.read_text(encoding="utf-8"))
               for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
               for p in folder.glob("*.py")}
    uncalled = set()
    for name in SUBMODULES:
        own = {PACKAGE / f"{name}.py", PACKAGE / "__init__.py"}
        for public in importlib.import_module(f"revcirc.{name}").__all__:
            if not any(public in ids for p, ids in sources.items() if p not in own):
                uncalled.add(public)
    assert uncalled == UNCALLED_PUBLIC_NAMES


def test_demos_and_benchmark_modules_import():
    """Every demo and the benchmark's set-up, state and workload modules
    import in a fresh interpreter on the source tree, so a name they take
    from the package cannot go unnoticed.  Each demo guards its `main`; the
    benchmark's runner loads its workloads only when it runs, so they are
    imported directly."""
    modules = [p.stem for p in sorted((ROOT / "demos").glob("*.py"))]
    modules += ["prepare", "state", "workloads"]
    code = ("import importlib, sys\n"
            "sys.path[:0] = ['demos', 'perfbench']\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n")
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name,owners", [
    ("evaluate_batch", {"core.py", "fitness.py"}),
    ("output_row_batch", {"core.py", "fitness.py"}),
    ("bitwise_count", {"fitness.py"}),
])
def test_batch_kernels_are_reached_only_through_the_scorer(name, owners):
    """The batch kernels live in `core` and only `fitness.Scorer` calls
    them or counts bits, so the choice of kernel is made in one place."""
    users = {p.name for p in PACKAGE.glob("*.py")
             if name in identifiers(p.read_text(encoding="utf-8"))}
    assert users == owners


WRITERS = {"open", "mkdir", "write_text", "write_bytes"}


def writes_outside(source: str, owner: str) -> list[str]:
    """Calls of a `WRITERS` name, as a function or a method, made anywhere
    but inside the function `owner`."""
    tree = ast.parse(source)
    inside = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.FunctionDef) and top.name == owner
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in WRITERS:
                found.append(name)
    return sorted(found)


def test_writes_outside_finds_stray_writers():
    source = ("def _output(p):\n    p.parent.mkdir()\n    return open(p, 'w')\n"
              "def save(p):\n    p.parent.mkdir()\n    p.write_bytes(b'')\n"
              "open('log', 'w').write('x')\n")
    assert writes_outside(source, "_output") == ["mkdir", "open", "write_bytes"]


def test_cli_opens_files_only_through_its_output_stream():
    """`cli._output` is the one place a command creates a file or a
    directory, so a refused request cannot leave one behind."""
    assert writes_outside((PACKAGE / "cli.py").read_text(encoding="utf-8"), "_output") == []


def comparisons_with(source: str, value: int) -> int:
    """Comparisons with the integer literal `value` on either side."""
    return sum(any(isinstance(o, ast.Constant) and o.value == value
                   for o in (node.left, *node.comparators))
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare))


def test_one_word_limit_is_compared_only_in_the_scorer():
    """The 64-case one-word limit is compared in one place, `fitness.Scorer`;
    the sampler, the scan and `ExperimentConfig` call `Scorer.check_one_word`."""
    assert comparisons_with("x = 64\nif n > 64 or 64 <= m < 99:\n    pass\n", 64) == 2
    compared = {p.name: comparisons_with(p.read_text(encoding="utf-8"), 64)
                for p in PACKAGE.glob("*.py")}
    assert {name: n for name, n in compared.items() if n} == {"fitness.py": 1}
