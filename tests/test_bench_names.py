"""The names that the benchmark harness in bench/ looks up in chainlife stay bound.

bench/spans.py wraps chainlife functions by their module attribute names,
and bench/worker.py's size ladder calls package attributes directly, so a
renamed or deleted name would break a traced run.  This test only reads
bench/; it changes nothing there.
"""
from __future__ import annotations

import types
from pathlib import Path

import chainlife
import chainlife.cli  # noqa: F401  the tracer wraps names in this module

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# what the ladder of bench/worker.py calls on the package
LADDER_NAMES = [
    "RegularNetwork",
    "EqualEnergySolution",
    "FlowMatrix",
    "flow_closed_form",
    "q_i_max",
    "PerturbedNetwork",
    "solve_equal_energy",
    "oracle.formulate",
    "oracle.solve",
    "documents.json_dumps",
    "documents.solution_document",
    "cost.build_cost_series",
    "cost.single_exponent_series",
]


def _load_spans() -> types.ModuleType:
    # run the source in a fresh module, so that no bytecode cache lands in bench/
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_the_tracer_installs_and_uninstalls_on_chainlife():
    spans = _load_spans()
    targets = spans._targets(chainlife)
    before = [getattr(module, attr) for module, attr, *_ in targets]
    tracer = spans.Tracer()
    try:
        tracer.install(chainlife)
        assert all(
            getattr(module, attr) is not original
            for (module, attr, *_), original in zip(targets, before)
        )
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, *_ in targets] == before


def test_the_size_ladder_names_stay_bound():
    for dotted in LADDER_NAMES:
        target = chainlife
        for part in dotted.split("."):
            assert hasattr(target, part), dotted
            target = getattr(target, part)
        assert callable(target), dotted
