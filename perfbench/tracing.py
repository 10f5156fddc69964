"""Spans around the program's public functions, for the traced run.

``Tracer.install`` wraps each function of ``LAYERS`` at every module of the
package that binds it (``decompose`` is bound in ``membership``, ``chain``,
``symmetry`` and the package itself, for example), and ``Tracer.remove``
puts the originals back.  Each call records a span: its layer, CPU start and
end, and the span it was called from.  Spans stay in memory; ``layer_metrics``
turns them into per-layer counts and self times (a span minus its children),
each self time divided by the reference time of the operation it ran in.
Which of these figures a traced run reports is set by the ``per_layer``
entries of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import process_time_ns

PACKAGE = "dirac_symmetry"

# layer -> (defining module, function or "Class.method", ...)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "membership.decompose": ("membership", ("decompose",)),
    "membership.verify": ("membership", ("IdealDecomposition.verify",)),
    "linsolve.solve": ("linsolve", ("solve_sparse",)),
    "linsolve.rank": ("linsolve", ("rational_rank",)),
    "phase.poisson": ("phase", ("poisson",)),
    "chain.generate": ("chain", ("generate_chain",)),
    "chain.first_class": ("chain", ("first_class_check",)),
    "chain.total_hamiltonian": ("chain", ("assemble_total_hamiltonian",)),
    "symmetry.commutation": ("symmetry", ("check_dynamical_symmetry",)),
    "symmetry.level": ("symmetry", ("check_level_preservation",)),
    "symmetry.counts": ("symmetry", ("check_counts",)),
    "symmetry.closure": ("symmetry", ("closure_and_structure_constants",)),
    "symmetry.jacobi": ("symmetry", ("StructureConstants.jacobi_ok",)),
    "cli.main": ("cli", ("main",)),
    "modelfile.load": ("modelfile", ("load_model_file",)),
    "expressions.parse": ("expressions", ("parse_polynomial",)),
    "report.build": ("report", (
        "chain_report", "total_hamiltonian_report", "first_class_report",
        "symmetry_report", "structure_constants_report",
    )),
    "report.text": ("report", (
        "chain_text", "total_hamiltonian_text", "first_class_text",
        "symmetry_text", "structure_constants_text",
    )),
    "report.render": ("report", ("render",)),
}

class Tracer:
    def __init__(self):
        self.layer: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counters: Counter = Counter(dict.fromkeys(HOOK_COUNTS, 0))
        # span index -> CPU time of counting hooks run inside it; that time
        # is the tracer's, so it is taken out of the span's self time
        self.hook_ns: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _wrap(self, layer: str, original):
        before = _BEFORE.get(layer)
        after = _AFTER.get(layer)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            index = len(self.layer)
            self.layer.append(layer)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            self._stack.append(index)
            self.start.append(process_time_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[index] = process_time_ns()
                self._stack.pop()
            if after is not None:
                self._hook(after, result)
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def _hook(self, count, value) -> None:
        start = process_time_ns()
        count(self.counters, value)
        if self._stack:
            self.hook_ns[self._stack[-1]] += process_time_ns() - start

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, (module_name, attrs) in LAYERS.items():
            defining = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(defining, cls_name)
                    original = owner.__dict__[method]
                    self._replace(owner, method, original, self._wrap(layer, original))
                    continue
                original = getattr(defining, attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, name, original, wrapper)

    def _replace(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def binding_sites(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{n}" for o, n, _ in self._installed)

    def remove(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -------------------------------------------------------
    def self_ns(self) -> list[int]:
        """Each span's CPU time minus its children's and its counting hooks'."""
        own = [e - s - self.hook_ns[i] for i, (s, e) in enumerate(zip(self.start, self.end))]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def layer_metrics(self, op_ref_seconds: list[float], batches: int) -> dict[str, float]:
        """Per-layer totals of the traced batches, divided by their number.

        ``op_ref_seconds[i]`` is the reference time operation i is divided
        by.  Every layer has a ``.n`` and a ``.self_ref``, 0 where it was not
        reached.  ``trace.batch_ref`` and ``trace.overhead_ref`` compare whole
        runs and are left to the caller.
        """
        totals: Counter = Counter(self.counters)
        for layer in LAYERS:
            totals[f"{layer}.n"] += 0
            totals[f"{layer}.self_ref"] += 0
        for layer, own, op in zip(self.layer, self.self_ns(), self.op):
            totals[f"{layer}.n"] += 1
            totals[f"{layer}.self_ref"] += own / 1e9 / op_ref_seconds[op]
        totals["membership.degrees_tried"] = sum(
            1 for layer, parent in zip(self.layer, self.parent)
            if layer == "linsolve.solve" and parent >= 0
            and self.layer[parent] == "membership.decompose"
        )
        totals["trace.spans"] = len(self.layer)
        out = {name: value / batches for name, value in totals.items()}
        tried = totals["membership.degrees_tried"]
        out["membership.found_per_system"] = (
            totals["membership.decompose.found"] / tried if tried else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON: one [layer, start_ns, end_ns, parent, op] per span."""
        spans = [list(s) for s in zip(self.layer, self.start, self.end, self.parent, self.op)]
        path.write_text(json.dumps({"fields": ["layer", "start_ns", "end_ns", "parent", "op"],
                                    "spans": spans}, separators=(",", ":")))


def _count_equations(counters: Counter, args: tuple) -> None:
    equations = args[0]  # a list: membership builds it before solving
    columns = set()
    for row, _ in equations:
        columns.update(row)
    counters["linsolve.solve.rows"] += len(equations)
    counters["linsolve.solve.cols"] += len(columns)
    counters["linsolve.solve.nonzeros"] += sum(len(row) for row, _ in equations)


def _count_found(counters: Counter, result) -> None:
    if type(result).__name__ == "IdealDecomposition":
        counters["membership.decompose.found"] += 1


def _count_inconsistent(counters: Counter, result) -> None:
    if result is None:
        counters["linsolve.solve.inconsistent"] += 1


def _count_terms(counters: Counter, result) -> None:
    counters["phase.poisson.terms_out"] += len(result.terms)


def _count_bytes(counters: Counter, result) -> None:
    counters["report.render.bytes"] += len(result.encode("utf-8"))


# Counting hooks: _BEFORE sees a call's arguments, _AFTER its result.
_BEFORE = {"linsolve.solve": _count_equations}
_AFTER = {
    "membership.decompose": _count_found,
    "linsolve.solve": _count_inconsistent,
    "phase.poisson": _count_terms,
    "report.render": _count_bytes,
}
HOOK_COUNTS = (
    "linsolve.solve.rows", "linsolve.solve.cols", "linsolve.solve.nonzeros",
    "linsolve.solve.inconsistent", "membership.decompose.found", "phase.poisson.terms_out",
    "report.render.bytes",
)
