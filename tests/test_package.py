"""The package's public surface: what ``lambdaring`` exports."""

import lambdaring
from lambdaring import cohomology, exactalg, rings

# Removed exports, by the module that defined them.
REMOVED = {
    cohomology: ("is_derivation", "extend_derivation", "_commutator_operator"),
    exactalg: ("determinant", "stack_rows", "stack_cols"),
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
