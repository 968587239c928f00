"""The public names the benchmark and the README call, and unused imports in the package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import sdfo

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_SCRIPTS = ("reference.py", "workloads.py")
MODULES = sorted(p for p in (ROOT / "src" / "sdfo").glob("*.py") if p.name != "__init__.py")


def sdfo_chains(tree: ast.AST) -> set[str]:
    """Every dotted name rooted at ``sdfo``: the outermost attribute chains
    and the modules and names of ``import sdfo...``/``from sdfo... import``."""
    chains, inner = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                inner.add(id(value))
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "sdfo" and id(node) not in inner:
                chains.add(".".join(["sdfo", *reversed(parts)]))
        elif isinstance(node, ast.Import):
            chains.update(a.name for a in node.names if a.name.split(".")[0] == "sdfo")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sdfo":
            chains.update(f"{node.module}.{a.name}" for a in node.names)
    return chains


def resolve(chain: str):
    """The object a dotted ``sdfo`` name names, importing submodules on the way."""
    parts = chain.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


def unresolved(chains) -> list[str]:
    """The dotted ``sdfo`` names among ``chains`` that name nothing."""
    missing = []
    for chain in sorted(chains):
        try:
            resolve(chain)
        except (AttributeError, ImportError):
            missing.append(chain)
    return missing


@pytest.mark.parametrize("script", BENCHMARK_SCRIPTS)
def test_benchmark_names_resolve(script):
    chains = sdfo_chains(ast.parse((ROOT / "benchmarks" / script).read_text(encoding="utf-8")))
    assert chains
    assert unresolved(chains) == []


# A backticked ``module.name`` (or ``sdfo.module.name``) in the README,
# where ``module`` is one of the package's modules.
README_NAME = re.compile(rf"`(?:sdfo\.)?({'|'.join(p.stem for p in MODULES)})\.(\w+)")


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = {f"sdfo.{module}.{name}" for module, name in README_NAME.findall(text)}
    assert len(names) >= 10
    assert unresolved(names) == []


def test_all_is_bound_and_unique():
    assert len(sdfo.__all__) == len(set(sdfo.__all__))
    assert [name for name in sdfo.__all__ if not hasattr(sdfo, name)] == []


def unused_imports(tree: ast.AST) -> list[str]:
    """Names a module binds by ``import`` or ``from ... import`` and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
