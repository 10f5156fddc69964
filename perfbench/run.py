"""Benchmark of dirac_symmetry: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's seeded operations from the package source in ``src/``,
runs them as timed batches, checks every output against independent answers
(``oracles.py``), and prints one JSON object as its last line of output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are per-layer
figures from a run with spans around the program's public functions.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_SECONDS, timed_reference
from stats import normalise, tail_percentile
from workloads import ROOT, WORKLOADS, WrongAnswer

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

PACKAGE = "dirac_symmetry"
SETUP_REPEATS = 5
# CPU seconds one batch takes, references included, on the machine the
# benchmark was sized on (README).  A run times round(seconds / nominal)
# batches, at least one, so --seconds sets its length in whole batches.
NOMINAL_BATCH_SECONDS = {
    "cli_models": 12.0,
    "gauge_sweep": 4.0,
    "membership_negative": 10.0,
    "membership_positive": 10.0,
}
# names and units of the metrics a run reports
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Batch:
    ops: list
    op_seconds: list[float] = field(default_factory=list)
    ref_seconds: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def normalised(self) -> list[float]:
        return normalise(self.op_seconds, self.ref_seconds)

    def op_ref_seconds(self) -> list[float]:
        r = self.ref_seconds
        return [(r[i] + r[i + 1]) / 2 for i in range(len(self.op_seconds))]


def batch_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_BATCH_SECONDS[workload]))


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup(workload: str, seed: int, batches: int):
    """Import the package and build the seeded batches, SETUP_REPEATS times.

    Returns (operations of each batch of the last repeat, a Batch whose
    "operations" are the repeats: their CPU seconds between reference runs).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    timing = Batch([])
    timing.ref_seconds.append(timed_reference())
    for _ in range(SETUP_REPEATS):
        _purge_package()
        gc.collect()
        start = time.process_time()
        ds = importlib.import_module(PACKAGE)
        importlib.import_module(f"{PACKAGE}.cli")
        rng = random.Random(seed)
        op_lists = [WORKLOADS[workload](ds, rng) for _ in range(batches)]
        timing.op_seconds.append(time.process_time() - start)
        gc.collect()
        timing.ref_seconds.append(timed_reference())
    origin = Path(ds.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return op_lists, timing


def run_batch(ops, tracer=None, first_index: int = 0) -> Batch:
    """Time every operation, each between two reference runs.

    With a tracer, spans of operation i are tagged with first_index + i.
    """
    batch = Batch(ops)
    gc.collect()
    batch.ref_seconds.append(timed_reference())
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = first_index + index
        gc.collect()
        start = time.process_time()
        try:
            output = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            output = None
            batch.errors[op.label] = f"{type(exc).__name__}: {exc}"
        batch.op_seconds.append(time.process_time() - start)
        batch.outputs[op.label] = output
        gc.collect()
        batch.ref_seconds.append(timed_reference())
    return batch


def check_batches(batches: list[Batch]) -> tuple[int, int, list[str]]:
    """(failed, wrong, messages).  Imports the oracle, and with it sympy."""
    from oracles import Oracle

    oracle = Oracle()
    failed = wrong = 0
    messages = []
    for batch in batches:
        for op in batch.ops:
            if op.label in batch.errors:
                failed += 1
                messages.append(f"error: {op.label}: {batch.errors[op.label]}")
                continue
            try:
                op.check(batch.outputs[op.label], batch.outputs, oracle)
            except WrongAnswer as exc:
                reason = str(exc)
            except Exception as exc:  # a check that cannot judge the output fails it
                reason = f"check raised {type(exc).__name__}: {exc}"
            else:
                continue
            failed += 1
            wrong += 1
            messages.append(f"wrong: {op.label}: {reason}")
    return failed, wrong, messages


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def pick(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics ``specs`` (entries of BENCHMARK.json) name, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def end_to_end_metrics(batches: list[Batch], setup_timing: Batch, rss: float):
    norm = [x for b in batches for x in b.normalised()]
    tail_p, tail_value = tail_percentile(norm)
    values = {
        # normalised like every operation, then stated in seconds of the
        # machine the benchmark was sized on
        "setup_s": statistics.median(setup_timing.normalised()) * REFERENCE_SECONDS,
        "batch_ref": statistics.median(sum(b.normalised()) for b in batches),
        "op_p50_ref": statistics.median(norm),
        "op_tail_ref": tail_value,
        "peak_rss_mb": rss,
    }
    notes = [f"op_tail_ref is p{tail_p} of {len(norm)} operations"]
    return pick(values, SPEC["end_to_end"]), notes


def pin_hash_seed(seed: int) -> None:
    """Re-execute this process with PYTHONHASHSEED derived from --seed.

    The string-hash seed moves this program's CPU time by several percent
    from process to process (dict and attribute-cache layouts change with
    it), and no reference computation cancels that.  Deriving it from the
    seed makes a run reproducible: the same seed gives the same inputs and
    the same layouts, while runs on different seeds still sample different
    ones.  ``exec`` replaces the process; it starts no other.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    pin_hash_seed(args.seed)

    n_batches = batch_count(args.workload, args.seconds)
    try:
        op_lists, setup_timing = setup(args.workload, args.seed, n_batches)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        from tracing import Tracer

        # Each batch runs untraced and traced, in the order A B, B A, A B, ...
        # so that a drift in speed over the run does not pass for overhead.
        tracer = Tracer()
        batches, traced = [], []
        for index, ops in enumerate(op_lists):
            for with_trace in (False, True) if index % 2 == 0 else (True, False):
                if not with_trace:
                    batches.append(run_batch(ops))
                    continue
                tracer.install()
                try:
                    traced.append(run_batch(ops, tracer, sum(len(b.ops) for b in traced)))
                finally:
                    tracer.remove()
        layer = tracer.layer_metrics([r for b in traced for r in b.op_ref_seconds()], n_batches)
        untraced_ref = statistics.median(sum(b.normalised()) for b in batches)
        traced_ref = statistics.median(sum(b.normalised()) for b in traced)
        layer["trace.batch_ref"] = traced_ref
        layer["trace.overhead_ref"] = traced_ref - untraced_ref
        metrics = pick(layer, SPEC["per_layer"])
        batches += traced
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        notes = [f"tracing overhead {layer['trace.overhead_ref']:.3f} ref "
                 f"on an untraced batch of {untraced_ref:.3f} ref"]
    else:
        batches = [run_batch(ops) for ops in op_lists]
        metrics, notes = end_to_end_metrics(batches, setup_timing, peak_rss_mb())

    failed, wrong, messages = check_batches(batches)
    result = {
        "correct": wrong == 0,
        "attempted": sum(len(b.ops) for b in batches),
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "hash_seed": os.environ.get("PYTHONHASHSEED"),
                    "notes": notes, "messages": messages,
                    "setup": {"op_seconds": setup_timing.op_seconds,
                              "ref_seconds": setup_timing.ref_seconds},
                    "batches": [{"labels": [op.label for op in b.ops], "op_seconds": b.op_seconds,
                                 "ref_seconds": b.ref_seconds} for b in batches],
                    **result}, indent=1)
    )
    for message in messages[:20]:
        print(message)
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
