import importlib
import sys

import pytest

import run
from tracing import LAYERS, PACKAGE, Tracer


@pytest.fixture
def ds():
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return package


def _modules():
    return {name: m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _snapshot():
    return {(name, attr): value for name, m in _modules().items()
            for attr, value in vars(m).items() if callable(value)}


def test_wrappers_reach_every_binding_site_and_are_removed(ds):
    before = _snapshot()
    verify = ds.IdealDecomposition.verify
    tracer = Tracer()
    tracer.install()
    try:
        sites = set(tracer.binding_sites())
        for site in (
            "dirac_symmetry.membership.decompose", "dirac_symmetry.chain.decompose",
            "dirac_symmetry.symmetry.decompose", "dirac_symmetry.decompose",
            "dirac_symmetry.phase.poisson", "dirac_symmetry.chain.poisson",
            "dirac_symmetry.symmetry.poisson", "dirac_symmetry.membership.solve_sparse",
            "dirac_symmetry.expressions.parse_polynomial",
            "dirac_symmetry.modelfile.parse_polynomial",
            "dirac_symmetry.cli.generate_chain", "dirac_symmetry.cli.load_model_file",
            "dirac_symmetry.linsolve.rational_rank", "dirac_symmetry.symmetry.rational_rank",
        ):
            assert site in sites
        mods = _modules()
        assert mods["dirac_symmetry.chain"].decompose is mods["dirac_symmetry.symmetry"].decompose
        assert mods["dirac_symmetry.chain"].decompose.__wrapped_layer__ == "membership.decompose"
        assert ds.IdealDecomposition.verify.__wrapped_layer__ == "membership.verify"
        # every layer installed at least one wrapper
        layers = {getattr(getattr(o, n), "__wrapped_layer__", None)
                  for o, n, _ in tracer._installed}
        assert layers == set(LAYERS)
    finally:
        tracer.remove()
    assert _snapshot() == before
    assert ds.IdealDecomposition.verify is verify


def test_spans_nest_and_self_time_excludes_children(ds):
    model = ds.three_level_chain()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_op = 0
        chain = ds.generate_chain(model.system)
        ds.first_class_check(chain)
    finally:
        tracer.remove()
    names = tracer.layer
    assert names[0] == "chain.generate" and tracer.parent[0] == -1
    solves = [i for i, n in enumerate(names) if n == "linsolve.solve"]
    assert solves and all(names[tracer.parent[i]] == "membership.decompose" for i in solves)
    own = tracer.self_ns()
    total = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p == -1)
    assert tracer.hook_ns and sum(own) + sum(tracer.hook_ns.values()) == total
    metrics = tracer.layer_metrics([1.0], batches=1)
    assert metrics["membership.degrees_tried"] == len(solves) == metrics["linsolve.solve.n"]
    assert metrics["chain.first_class.self_ref"] > 0
    assert metrics["cli.main.self_ref"] == 0.0


def test_traced_run_gives_every_per_layer_metric(ds):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_op = 0
        ds.generate_chain(ds.three_level_chain().system)
    finally:
        tracer.remove()
    layer = tracer.layer_metrics([1.0], batches=1)
    layer.update({"trace.batch_ref": 1.0, "trace.overhead_ref": 0.0})
    metrics = run.pick(layer, run.SPEC["per_layer"])
    assert list(metrics) == [m["name"] for m in run.SPEC["per_layer"]]
    assert metrics["report.render.bytes"] == {"value": 0, "unit": "bytes"}


def test_counting_hooks_are_taken_out_of_the_enclosing_span():
    tracer = Tracer()
    tracer.layer = ["membership.decompose", "linsolve.solve"]
    tracer.start, tracer.end, tracer.parent = [0, 10], [100, 50], [-1, 0]
    tracer.hook_ns[0] = 5
    assert tracer.self_ns() == [100 - 40 - 5, 40]
