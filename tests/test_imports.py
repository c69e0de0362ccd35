"""Every module-level import in the package is used in its module.

No linter ships with the test dependencies, so this walks the syntax tree
with the standard library's `ast`: an import left behind when code moves
out of a module fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cvarmdp"

# (module, name) pairs imported only so that callers find them in that module
RE_EXPORTS = {("chains", "deterministic_policies")}


def module_imports(tree):
    """The names bound by the module's top-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def used_names(tree):
    """Every name the module reads, outside its import statements."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [name for name in module_imports(tree)
              if name not in used and (path.stem, name) not in RE_EXPORTS]
    assert not unused, f"{path.name} imports but never uses {unused}"


def lp_program_reads(tree):
    """The names of `lp` the module reads that build or solve a program:
    `lp.solve`, `lp.Sweep` and `lp.build_*`, as
    attributes of `lp` or imported from it."""
    def runs(name):
        return name in ("solve", "Sweep") or name.startswith("build_")
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "lp" and runs(node.attr)}
    reads |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module in ("lp", "cvarmdp.lp") and node.level <= 1
              for alias in node.names if runs(alias.name)}
    return reads


def test_only_solver_runs_programs():
    """`solver` is the one module that builds and solves linear programs;
    every other module asks it for a solve. The package's `__init__` only
    re-exports names and runs nothing."""
    reads = {path.name: sorted(lp_program_reads(ast.parse(path.read_text(), filename=str(path))))
             for path in sorted(SRC.glob("*.py"))
             if path.stem not in ("__init__", "lp", "solver")}
    assert not {name: names for name, names in reads.items() if names}
