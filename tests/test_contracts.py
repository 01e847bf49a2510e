import ast
from pathlib import Path

import singerlab


def _package_nodes():
    for path in sorted(Path(singerlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so contracts and invariants must raise
    found = [where for where, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert not found, found


def test_package_reads_no_environment_variables():
    # the one budget and every other setting are constants, not knobs
    knobs = ("environ", "getenv")
    found = [where for where, node in _package_nodes()
             if (isinstance(node, ast.Attribute) and node.attr in knobs
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in knobs for alias in node.names))]
    assert not found, found
