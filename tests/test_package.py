"""The package's public surface: what ``lambdaring`` exports."""

import ast
import contextlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import pytest

import lambdaring
import lambdaring.cli
from lambdaring import cochain, cohomology, deformation, exactalg, rings, symfun

# Removed names, by the module or class that defined them.
REMOVED = {
    cochain: (
        "make_table_cochain",
        "table_cochain_to_dict",
        "table_cochain_from_dict",
        "zero_cochain",
    ),
    cohomology: ("is_derivation", "extend_derivation", "_commutator_operator"),
    deformation.FormalAutomorphism: ("inverse_to",),
    exactalg: (
        "determinant",
        "stack_rows",
        "stack_cols",
        "multiply_vecs",
        "quotient_presentation",
        "vec_sub",
    ),
    exactalg.IntMatrix: ("is_zero_mod",),
    exactalg._Eliminator: ("_solving", "_start"),
    exactalg.AbelianGroup: ("is_trivial",),
    rings: ("lambda_series", "element_series_mul", "FactoredInt", "_product", "load_ring_file"),
    rings.LambdaData: ("from_table",),
    rings.RingSpec: ("multiplication_matrix",),
    symfun.MultiPoly: ("substitute", "zero"),
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


def test_lambda_data_stores_no_max_degree():
    """The attribute is gone; the argument and its check stay."""
    family = rings.preset_family("Z")
    assert not hasattr(rings.LambdaData(family, 3), "max_degree")
    assert not hasattr(rings.LambdaData.from_adams(family, 3), "max_degree")
    assert "max_degree" in inspect.signature(rings.LambdaData).parameters
    with pytest.raises(ValueError, match="at least 1"):
        rings.LambdaData(family, 0)


# Removed keyword options, by the function or class that took them.
REMOVED_OPTIONS = {
    deformation.verify_deformation: ("max_total_exponent",),
    cochain.run_identity_check: ("max_total_exponent",),
    cochain.random_cochain: ("entry_bound", "prime_divisible"),
    cochain.random_endomorphism: ("coeff_bound",),
    cochain.Cochain: ("prime_divisible", "table"),
    exactalg._Eliminator: ("track_u", "track_v_inv"),
    exactalg._Eliminator.diagonalize: ("divisibility_chain",),
    exactalg.SmithDecomposition: ("u", "v_inv"),
    exactalg.quotient_with_generators: ("generators_rank",),
    rings.LambdaData: ("table",),
    symfun.verify_lambda_axioms: ("composition_limit",),
}


def test_removed_options_are_not_parameters():
    for function, options in REMOVED_OPTIONS.items():
        parameters = inspect.signature(function).parameters
        for option in options:
            assert option not in parameters, (function.__name__, option)


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


def test_only_exactalg_indexes_matrix_entries():
    """``IntMatrix.entries`` is flat and row-major; every other module reads
    entries through ``m[i, j]``, ``row``, ``column`` or ``flat``."""
    indexed = []
    for path in sorted(Path(lambdaring.__file__).parent.glob("*.py")):
        if path.name == "exactalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        indexed += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "entries"
        ]
    assert indexed == []


def test_only_smith_decomposition_touches_the_derived_transforms():
    """A Smith form tracks ``d``, ``v`` and ``u_inv``; its ``u`` and
    ``v_inv`` are solved for on first read, at many times the cost of the
    form.  So no library code outside ``SmithDecomposition`` reads or sets
    an attribute of either name, and no report pays for a derivation."""
    touched = []
    for path in sorted(Path(lambdaring.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "SmithDecomposition"
            for inner in ast.walk(node)
        }
        touched += [
            f"{path.name}:{node.lineno}: .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("u", "v_inv")
            and id(node) not in owner
        ]
    assert touched == []


def test_library_modules_import_no_private_names():
    """No module imports an underscore name from another, or reads one off a
    name imported from another: private names stay home."""
    private = []
    for path in sorted(Path(lambdaring.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "lambdaring"
            ):
                private += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
                imported.update(alias.asname or alias.name for alias in node.names)
        private += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
        ]
    assert private == []


def library_state() -> dict:
    """Every attribute of every lambdaring module and class, by identity."""
    modules = [lambdaring, lambdaring.cli, cochain, cohomology, deformation, exactalg, rings, symfun]
    state = {}
    for module in modules:
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = id(value)
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    state[(module.__name__, attr, member)] = id(inner)
    return state


def test_benchmark_tracer_installs_and_restores(tmp_path):
    """The benchmark's tracer wraps library names; deleting one fails here first.

    The runs reach every observer: H1 runs the Smith form, and extend
    runs try_extend and its solve.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    trivial = deformation.trivial_deformation(rings.preset_family("Z", (2, 3, 5)), 1)
    document = tmp_path / "z.json"
    document.write_text(json.dumps(deformation.deformation_to_dict(trivial)))
    before = library_state()
    with tracer_module.Tracer() as tracer:
        assert library_state() != before
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["cohomology", "h0", "--preset", "Z"],
                ["cohomology", "h1", "--preset", "Z"],
                ["deform", "extend", "--deformation", str(document), "--bound", "2"],
            ):
                assert lambdaring.cli.entry(argv) == 0, argv
    assert library_state() == before
    assert tracer.layers["cli.entry"][0] == 3
    assert tracer.layers["cohomology.compute_H0"][0] == 1
    assert tracer.layers["cohomology.compute_H1"][0] == 1
    assert tracer.layers["deformation.try_extend"][0] == 1
    for size in (
        "exactalg.smith_normal_form.rows_max",
        "exactalg.solve_linear.rows_max",
        "deformation.try_extend.equations",
        "deformation.try_extend.unknowns",
    ):
        assert tracer.sizes[size] > 0, size
