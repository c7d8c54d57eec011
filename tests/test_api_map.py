"""The README's Python API map names every export and no removed name;
every export has a caller in the package or the demos, and every private
module-level name a reader in the package."""

import ast
import functools
import pydoc
import re
import sys
import types
from pathlib import Path

import pytest

import blochpath

ROOT = Path(__file__).resolve().parents[1]

# the package loads lazily, and the cases below are read from its namespace:
# looking up one export loads every module and binds every export
blochpath.FieldSpec

#: names and parameters taken out of the package; none may be referred to
#: again
REMOVED = ("curvature_expectation", "curvature_numeric_oracle",
           "curvature_transverse", "transport_residual",
           "geodesic_efficiency_global", "_dispersion_operator", "fd_step",
           "pauli_decompose", "_hermitian_parts", "PAULI_X", "PAULI_Y",
           "PAULI_Z", "IDENTITY2", "orbit_radius", "rotation_angle",
           "travel_time", "arc_length_alpha", "delta_e_alpha",
           "bloch_from_state", "speed_efficiency", "FD_STEP",
           "_central_difference", "_sample_h", "_BatchedField", "_plain_reals",
           "_stack", "_fill", "HermiticityError", "TOL_HERM", "rodrigues_rotate",
           "_powers", "_TableField", "_PathField", "sample_h_dot", "_h_dot_rows",
           "_shifts", "_HUGE", "_bloch_of", "_bloch_rows", "_column")


def _exports() -> list[str]:
    return sorted(name for name, value in vars(blochpath).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def _api_map_identifiers() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API map\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", section)
    return {word for span in spans
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def _module_all() -> list[tuple[str, str]]:
    return sorted((module.__name__, name)
                  for module in vars(blochpath).values()
                  if isinstance(module, types.ModuleType)
                  for name in getattr(module, "__all__", ()))


@pytest.mark.parametrize("name", _exports())
def test_every_export_is_in_the_api_map(name):
    assert name in _api_map_identifiers()


@pytest.mark.parametrize("module,name", _module_all())
def test_every_public_name_of_a_module_is_exported(module, name):
    assert getattr(blochpath, name, None) is getattr(sys.modules[module], name)


def test_the_cases_cover_every_export():
    # as many as before the package loaded lazily, so none went missing
    assert _exports() == sorted(blochpath.__all__)
    assert (len(_exports()), len(_module_all())) == (54, 41)


def test_each_module_all_is_its_row_of_the_export_table():
    for name, names in blochpath._EXPORTS.items():
        module = sys.modules[f"blochpath.{name}"]
        assert getattr(module, "__all__", list(names)) == list(names), name


def test_no_module_but_the_package_spells_out_its_all():
    # one list of exports: each module reads its __all__ from the package's table
    assignments = []
    for file, module in _package_modules():
        if file == "__init__.py":
            continue
        for node in ast.walk(module):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                assignments.append((file, ast.unparse(node.value)))
    assert assignments == [(f"{name}.py", "_exports(__name__)")
                           for name in sorted(blochpath._EXPORTS) if name != "errors"]


def test_star_import_dir_and_help_give_the_exports():
    names = {}
    exec("from blochpath import *", names)
    assert sorted(set(names) - {"__builtins__"}) == _exports()
    assert set(_exports()) <= set(dir(blochpath))
    text = pydoc.render_doc(blochpath, renderer=pydoc.plaintext)
    assert [name for name in _exports() if not re.search(rf"\b{name}\b", text)] == []


@functools.cache
def _used_names() -> frozenset[str]:
    """Names read as a ``Name`` or an ``Attribute`` in the package modules
    (``__init__`` aside) and in the demos."""
    files = [path for path in sorted((ROOT / "src" / "blochpath").glob("*.py"))
             if path.name != "__init__.py"] + sorted((ROOT / "demos").rglob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return frozenset(used)


@pytest.mark.parametrize("name", _exports())
def test_every_export_has_a_caller_outside_the_tests(name):
    assert name in _used_names()


@functools.cache
def _package_modules() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "blochpath").glob("*.py"))]


def _private_definitions() -> dict[str, list[str]]:
    """Each module-level private function, class and constant of the package,
    by name, and where it is defined."""
    found = {}
    for file, module in _package_modules():
        for node in module.body:
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__"):
                    found.setdefault(name, []).append(f"{file}:{node.lineno}")
    return found


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


@functools.cache
def _package_reads() -> frozenset[str]:
    """Names read in the package, as a ``Load`` ``Name`` or an ``Attribute``,
    each outside the top-level statement that defines it."""
    reads = set()
    for _, module in _package_modules():
        for stmt in module.body:
            own = set(_defined(stmt))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name not in own:
                    reads.add(name)
    return frozenset(reads)


@pytest.mark.parametrize("name", sorted(_private_definitions()))
def test_every_private_definition_is_read_in_the_package(name):
    assert name in _package_reads(), _private_definitions()[name]


def test_no_removed_name_is_left_behind():
    files = [ROOT / "README.md", *sorted((ROOT / "demos").rglob("*.py")),
             *sorted((ROOT / "src").rglob("*.py"))]
    pattern = re.compile(r"\b(?:%s)\b" % "|".join(REMOVED))
    found = [f"{path.relative_to(ROOT)}:{n}: {match.group()}"
             for path in files
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             for match in pattern.finditer(line)]
    assert found == []
