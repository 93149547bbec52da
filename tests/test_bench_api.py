"""The benchmark's scripts read the program through its module attributes
(`training.window_gradients`, `model.load_params`, ...). Each one they read
must still exist, so that removing one fails here and not in a benchmark
run. bench/tracer.py is left out: it patches only the names that exist."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def trees(path):
    """The file's syntax tree, then those of its string constants that are
    Python importing stgcvae (code it runs in a fresh interpreter)."""
    tree = ast.parse(path.read_text(), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "from stgcvae" in node.value:
            yield ast.parse(node.value)


def attributes_read(path):
    """(module, attribute) of each stgcvae attribute the file reads: the
    names of `from stgcvae[.module] import ...` and `module.attribute` of
    each module so imported."""
    found = set()
    for tree in trees(path):
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "stgcvae":
                for alias in node.names:
                    found.add((node.module, alias.name))
                    if node.module == "stgcvae":
                        modules[alias.asname or alias.name] = \
                            f"stgcvae.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return sorted(found)


def exists(module, attr):
    """Whether `from module import attr` would find attr: an attribute of
    the module, or a submodule of the package."""
    if hasattr(importlib.import_module(module), attr):
        return True
    try:
        importlib.import_module(f"{module}.{attr}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("name", ["run.py", "checkpoint.py", "workloads.py"])
def test_every_program_attribute_the_benchmark_reads_exists(name):
    read = attributes_read(BENCH / name)
    assert read
    missing = [f"{module}.{attr}" for module, attr in read
               if not exists(module, attr)]
    assert not missing, f"bench/{name} reads {missing}"


def test_the_benchmark_reads_the_single_window_apis():
    read = set(attributes_read(BENCH / "run.py"))
    for pair in [("stgcvae.training", "window_gradients"),
                 ("stgcvae.evaluation", "sample_trajectory"),
                 ("stgcvae.model", "load_params"),
                 ("stgcvae.model", "config_from_metadata")]:
        assert pair in read
