import dataclasses
import importlib
import random

import pytest

import run
import workloads
from workloads import Operation, WrongAnswer


@pytest.fixture
def ds():
    package = importlib.import_module("dirac_symmetry")
    importlib.import_module("dirac_symmetry.cli")
    return package


def _three_level_ops(ds):
    return [op for op in workloads.build_cli_models(ds, random.Random(0))
            if "three_level_chain" in op.label]


def test_correct_outputs_pass(ds):
    ops = _three_level_ops(ds)
    assert len(ops) == 14
    failed, wrong, messages = run.check_batches([run.run_batch(ops)])
    assert (failed, wrong, messages) == (0, 0, [])


def test_wrong_expected_answer_is_a_failed_operation(ds, monkeypatch):
    counts, sets = workloads.CLI_MODELS["three_level_chain"]
    wrong_sets = dict(sets, good=("MixesConstraints", "abelian"))
    monkeypatch.setitem(workloads.CLI_MODELS, "three_level_chain", (counts, wrong_sets))
    ops = _three_level_ops(ds)
    failed, wrong, messages = run.check_batches([run.run_batch(ops)])
    # exit code and verdict of the structured call, exit code of the text call
    assert (failed, wrong) == (2, 2)
    assert all(m.startswith("wrong: check-symmetry three_level_chain --set good") for m in messages)


def test_operation_that_raises_is_failed_but_not_wrong():
    def boom():
        raise ValueError("no")

    def never(output, outputs, oracle):
        raise WrongAnswer("must not be checked")

    ops = [Operation("boom", boom, never)]
    batch = run.run_batch(ops)
    assert batch.errors == {"boom": "ValueError: no"}
    assert len(batch.ref_seconds) == 2 and len(batch.op_seconds) == 1
    assert run.check_batches([batch])[:2] == (1, 0)


def test_certificate_too_high_in_energy_is_a_failed_operation(ds):
    op = workloads.build_membership_positive(ds, random.Random(0))[0]
    assert "n=1 degree=3" in op.label
    outcome = op.call()
    # add the syzygy E^4 * (g1 * g0 - g0 * g1): the sum is unchanged, but a
    # coefficient now has degree 5 > 3, and E carries four of it
    energy = ds.PhasePolynomial.variable(outcome.target.space, "E") ** 4
    c, g = list(outcome.coefficients), outcome.generators
    c[0], c[1] = c[0] + energy * g[1], c[1] - energy * g[0]
    tampered = dataclasses.replace(outcome, coefficients=tuple(c))
    assert tampered.expand() == outcome.target
    ops = [op, Operation("tampered", lambda: tampered, op.check)]
    failed, wrong, messages = run.check_batches([run.run_batch(ops)])
    assert (failed, wrong) == (1, 1)
    assert messages == ["wrong: tampered: certificate degree exceeds the built degree 3"]
