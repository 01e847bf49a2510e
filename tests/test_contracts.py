import ast
import functools
import importlib.util
import inspect
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


def test_package_imports_are_used():
    # a name imported and never read is left over from deleted code
    found = []
    for path in sorted(Path(singerlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # the package namespace re-exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            found.extend(f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                         if (alias.asname or alias.name).split(".")[0] not in used)
    assert not found, found


def test_private_definitions_are_referenced():
    # a private function or class that nothing in the package names is
    # left over from deleted or deduplicated code
    defined, referenced = [], set()
    for where, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.append((where, node.name))
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    assert len(defined) > 50
    found = [f"{where} {name}" for where, name in defined if name not in referenced]
    assert not found, found


def _package_memos():
    """Every lru_cache-wrapped function defined in the package, by name."""
    memos = {}
    for path in sorted(Path(singerlab.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"singerlab.{path.stem}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_parameters", None)):
                memos[f"{value.__module__}.{value.__qualname__}"] = value
    return memos


# the annotations of group parameters: sizes, the field, a unit subgroup of
# F_q^x and a field modulus; there are finitely many of each per group
_GROUP_PARAMETERS = {"int", "FieldSpec", "frozenset[int]", "tuple[int, ...] | None"}


def test_unbounded_memos_take_only_group_parameters():
    # a memo keyed by a Poly, Matrix, Subspace or entries tuple grows with a
    # sweep, so it must have a finite maxsize; only memos keyed by group
    # parameters may be unbounded
    memos = _package_memos()
    unbounded = {name: memo for name, memo in memos.items()
                 if memo.cache_parameters()["maxsize"] is None}
    found = [f"{name}({param.name}: {param.annotation})"
             for name, memo in unbounded.items()
             for param in inspect.signature(memo).parameters.values()
             if param.annotation not in _GROUP_PARAMETERS]
    assert not found, found
    bounded = {name.rsplit(".", 1)[1] for name in memos.keys() - unbounded.keys()}
    assert {"_fixed_space_of_entries", "_stabilizing_reflections", "_permutation",
            "is_irreducible", "is_primitive_poly", "_eigenvalues_primitive"} <= bounded


def _relative_imports(node):
    """The package modules a relative import statement names, or []."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    return [node.module] if node.module else [alias.name for alias in node.names]


def test_deferred_imports_break_a_cycle():
    # a function-level import is kept only where the module-level one would
    # be circular: module n may run "from .m import" inside a function only
    # when m imports n at module level
    top_level = {}
    deferred = set()
    for path in sorted(Path(singerlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top_level[path.stem] = {m for node in tree.body for m in _relative_imports(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update((path.stem, m, node.lineno) for node in ast.walk(func)
                                for m in _relative_imports(node))
    found = sorted(f"{n}.py:{line} imports {m}" for n, m, line in deferred
                   if n not in top_level.get(m, ()))
    assert not found, found


def test_bench_span_targets_resolve():
    # the benchmark's traced pass wraps these by name; a deleted or renamed
    # target would otherwise fail only when the benchmark runs
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _ in tracer.CALLS + tracer.GENERATORS:
        try:
            target = functools.reduce(getattr, attr.split("."),
                                      importlib.import_module(module_name))
        except AttributeError:
            target = None
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def _outermost_definitions():
    """(file:definition, node) for every node of the package, where the
    definition is the top-level function or Class.method holding the node,
    or <module>."""
    for path in sorted(Path(singerlab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{node.name}", node) for node in top.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = [(top.name, top)]
            else:
                defs = [("<module>", top)]
            for name, root in defs:
                for node in ast.walk(root):
                    yield f"{path.name}:{name}", node


def test_prime_field_forks_only_where_they_pay():
    # every kernel runs field arithmetic on prime and extension fields alike;
    # outside ff, only the search's matrix product and the closures'
    # permutation tables keep a prime-field branch
    found = {where for where, node in _outermost_definitions()
             if isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
             and node.left.attr == "k" and not where.startswith("ff.py:")}
    assert found == {"matrix.py:mul_entries", "groupgen.py:_linear_permutation"}, found


def test_budget_errors_come_from_the_one_guard():
    # closed-form sizes go through matrix._check_budget; only the search's
    # running candidate counter, which has no closed form, raises inline
    found = {where for where, node in _outermost_definitions()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "BudgetExceededError"}
    assert found == {"matrix.py:_check_budget", "reflect.py:_search"}, found


def test_one_model_of_the_extension_field():
    # F_(q^n) has one owner, poly.field_model: only the choice of an
    # extension field's modulus scans the monic polynomials, and only the
    # eigenvalue test, which must not read the model, builds its own
    # residue field F_q[x]/(f)
    def callers(name):
        return {where for where, node in _outermost_definitions()
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name}

    assert callers("enumerate_monic") == {"ff.py:FieldSpec.__init__"}
    assert callers("FieldExtension") == {"singer.py:_eigenvalues_primitive"}
