"""The package's public surface: what ``lambdaring`` exports."""

import ast
from pathlib import Path

import lambdaring
from lambdaring import cohomology, exactalg, rings

# Removed names, by the module or class that defined them.
REMOVED = {
    cohomology: ("is_derivation", "extend_derivation", "_commutator_operator"),
    exactalg: ("determinant", "stack_rows", "stack_cols", "multiply_vecs"),
    exactalg.IntMatrix: ("is_zero_mod",),
    rings: ("lambda_series", "element_series_mul"),
}


def test_all_has_no_duplicates():
    assert len(lambdaring.__all__) == len(set(lambdaring.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in lambdaring.__all__ if not hasattr(lambdaring, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in lambdaring.__all__
            assert not hasattr(lambdaring, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_library_modules_use_every_import():
    """No module imports a name it never reads; ``__init__`` only re-exports."""
    unused = []
    for path in sorted(Path(lambdaring.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
