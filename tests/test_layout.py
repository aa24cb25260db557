"""Only `exactla` knows how a `Matrix` is stored.

Every other module of the package reads a matrix through its accessors and
sparse views and builds one through the `Matrix` class methods, so the
dense row-major layout can be read or written in one module only.  This
scans the sources for the two ways around that: the `.data` attribute and
a direct `Matrix(...)` call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfcontra"


def _layout_sites(path):
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "data":
            sites.append(f"{path.name}:{node.lineno} .data")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "Matrix"):
            sites.append(f"{path.name}:{node.lineno} Matrix(...)")
    return sites


def test_only_exactla_touches_the_matrix_layout():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"exactla.py", "cyclic.py", "homconn.py"}
    sites = [s for p in modules if p.name != "exactla.py" for s in _layout_sites(p)]
    assert sites == []


def test_the_scan_sees_both_kinds_of_site():
    # exactla itself is where the layout lives, so the scan must find it there
    sites = _layout_sites(SRC / "exactla.py")
    assert any(s.endswith(" .data") for s in sites)
    assert any(s.endswith(" Matrix(...)") for s in sites)
