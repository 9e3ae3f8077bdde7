"""Layer spans recorded from outside the library.

``Tracer`` wraps the public functions and methods of each lambdaring
module named in ``LAYERS``.  Modules bind functions by name at import
(``deformation`` does ``from .exactalg import solve_linear``), so a
function is replaced in every ``lambdaring`` module attribute that holds
it, and a method is replaced on its class.  ``restore`` puts every
original back.

Each call is a span whose parent is the innermost enclosing span.  Self
time is the span's duration minus the time its child spans cover.  The
tracer keeps only per-job aggregates in memory: per layer the call
count, self and total time, and per (parent, child) pair the call
count.  A job's child process makes one tracer; ``snapshot`` returns its
aggregates when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

# layer name -> (module, attribute path); "Class.method" wraps on the class.
# Several entries may share one layer name (the elementwise operators).
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("exactalg.matmul", "exactalg", "IntMatrix.__matmul__"),
    ("exactalg.elementwise", "exactalg", "IntMatrix.__add__"),
    ("exactalg.elementwise", "exactalg", "IntMatrix.__sub__"),
    ("exactalg.elementwise", "exactalg", "IntMatrix.__neg__"),
    ("exactalg.elementwise", "exactalg", "IntMatrix.__rmul__"),
    ("exactalg.mult_operator", "exactalg", "left_multiplication_operator"),
    ("exactalg.mult_operator", "exactalg", "right_multiplication_operator"),
    ("exactalg.solve_linear", "exactalg", "solve_linear"),
    ("exactalg.smith_normal_form", "exactalg", "smith_normal_form"),
    ("exactalg.kernel_basis", "exactalg", "kernel_basis"),
    ("exactalg.row_space_basis", "exactalg", "row_space_basis"),
    ("rings.adams_at", "rings", "AdamsFamily.adams_at"),
    ("rings.factor", "rings", "PrimeUniverse.factor"),
    ("rings.frobenius_compatible", "rings", "frobenius_compatible"),
    ("rings.ring_mul", "rings", "RingSpec.mul"),
    ("rings.lambda_from_adams", "rings", "lambda_from_adams"),
    ("symfun.compute_P", "symfun", "compute_P"),
    ("symfun.compute_P_ij", "symfun", "compute_P_ij"),
    ("symfun.multipoly_mul", "symfun", "MultiPoly.__mul__"),
    ("symfun.eval_in_ring", "symfun", "MultiPoly.eval_in_ring"),
    ("symfun.verify_lambda_axioms", "symfun", "verify_lambda_axioms"),
    ("cochain.at", "cochain", "Cochain.at"),
    ("cochain.run_identity_check", "cochain", "run_identity_check"),
    ("cohomology.compute_H0", "cohomology", "compute_H0"),
    ("cohomology.compute_H1", "cohomology", "compute_H1"),
    ("cohomology.frobenius_compatible_basis", "cohomology", "frobenius_compatible_basis"),
    ("cohomology.solve_coboundary_1", "cohomology", "solve_coboundary_1"),
    ("deformation.try_extend", "deformation", "try_extend"),
    ("deformation.series_mul", "deformation", "series_mul"),
    ("deformation.verify_deformation", "deformation", "verify_deformation"),
    ("deformation.normalize", "deformation", "normalize"),
    ("deformation.check_equivalent_extensions", "deformation", "check_equivalent_extensions"),
    ("cli.entry", "cli", "entry"),
)

# Layers whose (object, arguments) repeats are counted: the hit ratio a
# per-object cache could reach.
REPEAT_LAYERS = frozenset({"rings.adams_at", "cochain.at"})


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    """Context manager that installs the layer wrappers and restores them."""

    def __init__(self) -> None:
        self._restore: list[tuple[Any, str, Any]] = []
        self.layers: dict[str, list[float]] = {}  # name -> [calls, self_s, total_s]
        self.edges: dict[tuple[str, str], int] = {}
        self.sizes: dict[str, int] = {}
        self._seen: set = set()
        self._alive: list = []
        self.repeats: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child_seconds]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        targets = [(layer, importlib.import_module(f"lambdaring.{module_name}"), path)
                   for layer, module_name, path in LAYERS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lambdaring" or n.startswith("lambdaring."))]
        for layer, module, path in targets:
            if "." in path:
                class_name, attr = path.split(".")
                holder = getattr(module, class_name)
                original = holder.__dict__[attr]
                self._replace(holder, attr, original, self._wrap(layer, original))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(layer, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, attr, original, wrapper)

    def restore(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def _replace(self, holder, attr: str, original, wrapper) -> None:
        self._restore.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(layer)
        count_repeats = layer in REPEAT_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_repeats:
                self._note_repeat(layer, args)
            parent = stack[-1][0] if stack else ""
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = self.layers.get(layer)
                if stat is None:
                    stat = self.layers[layer] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                stat[2] += elapsed
                edge = (parent, layer)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _note_repeat(self, layer: str, args: tuple) -> None:
        obj, rest = args[0], args[1:]
        key = (layer, id(obj), rest)
        if key in self._seen:
            self.repeats[layer] = self.repeats.get(layer, 0) + 1
        else:
            self._seen.add(key)
            self._alive.append(obj)  # keeps id(obj) unique for the job

    def grow(self, key: str, value: int) -> None:
        if value > self.sizes.get(key, 0):
            self.sizes[key] = value

    def add(self, key: str, value: int) -> None:
        self.sizes[key] = self.sizes.get(key, 0) + value

    def snapshot(self) -> dict:
        """Aggregates of every span recorded so far."""
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "sizes": dict(self.sizes),
            "repeats": dict(self.repeats),
        }


def _observe_solve(tracer: Tracer, args, result) -> None:
    matrix = args[0]
    tracer.grow("exactalg.solve_linear.rows_max", matrix.rows)
    tracer.grow("exactalg.solve_linear.cols_max", matrix.cols)
    if result is None:
        tracer.add("exactalg.solve_linear.unsolvable", 1)
        return
    bits = max(_bits(result.particular), max((_bits(v) for v in result.kernel), default=0))
    tracer.grow("exactalg.entry_bits_max", bits)


def _observe_smith(tracer: Tracer, args, result) -> None:
    tracer.grow("exactalg.smith_normal_form.rows_max", args[0].rows)
    bits = max(_bits(m.flat()) for m in (result.u, result.v, result.u_inv, result.v_inv))
    tracer.grow("exactalg.entry_bits_max", bits)


def _observe_extend(tracer: Tracer, args, result) -> None:
    family = args[0].family
    tracer.grow("deformation.try_extend.equations", result.equations)
    tracer.grow("deformation.try_extend.unknowns", len(family.universe) * family.rank**2)


_OBSERVERS = {
    "exactalg.solve_linear": _observe_solve,
    "exactalg.smith_normal_form": _observe_smith,
    "deformation.try_extend": _observe_extend,
}
