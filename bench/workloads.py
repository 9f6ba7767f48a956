"""Seeded workload definitions: the CLI ops of one pass and their inputs.

A run repeats passes over a workload's op list.  Pass p uses input set
p % INPUT_SETS, so consecutive passes solve different chains of the same
sizes; an output left over from another pass then fails the reference
comparison.  Inputs depend only on (workload, seed, set index), never on
chainlife, which this module does not import.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference

INPUT_SETS = 8


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``input`` keys the set's input documents; ``spec`` is
    what the checker needs to build the reference for this op."""

    name: str
    command: str
    input: str
    fmt: str
    extra: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InputSet:
    inputs: dict
    ops: list


def _series(rng: random.Random) -> dict:
    lam = rng.uniform(0.2, 0.8)
    return {
        "terms": [
            {"lambda": lam, "exponent": rng.uniform(1.0, 2.0)},
            {"lambda": 1.0 - lam, "exponent": rng.uniform(2.0, 3.0)},
        ],
        "auto_normalize": False,
    }


def terms_of(doc: dict) -> list[tuple[float, float]]:
    return [(t["lambda"], t["exponent"]) for t in doc["cost"]["terms"]]


def unit_region_volumes(rng: random.Random, n: int) -> list[float]:
    # every Q_i >= 1 with a total under 1.5 n: the equal-energy split is
    # feasible and optimal there for any valid cost series
    while True:
        q = [1.0 + rng.uniform(0.0, 0.5) for _ in range(n)]
        if sum(q) < 1.5 * n - 1e-9:
            return q


def _large_chain(rng: random.Random) -> InputSet:
    # big chains: the O(n^2) regular closed form, the O(n^3) dense LU,
    # q_i_max and document emission do the work; the oracle is never called
    series = _series(rng)
    inputs, ops = {}, []
    for n in (1000, 3000):
        key = f"regular-n{n}"
        inputs[key] = {"n": n, "volumes": unit_region_volumes(rng, n), "cost": series}
        for fmt in ("json", "csv"):
            ops.append(Op(f"solve-regular-n{n}-{fmt}", "solve-regular", key, fmt,
                          spec={"kind": "solve"}))
    for n in (100, 300):
        key = f"perturbed-n{n}"
        inputs[key] = {
            "n": n,
            "volumes": unit_region_volumes(rng, n),
            "shifts": [rng.uniform(-1e-4, 1e-4) for _ in range(n)],
            "cost": series,
        }
        for fmt in ("json", "csv"):
            ops.append(Op(f"solve-perturbed-n{n}-{fmt}", "solve-perturbed", key, fmt,
                          spec={"kind": "solve"}))
    n = 1000
    inputs["bounds-n1000"] = {"n": n, "volumes": unit_region_volumes(rng, n), "cost": series}
    nodes = sorted(rng.sample(range(1, n), 6)) + [n]
    for fmt in ("json", "csv"):
        ops.append(Op(f"stability-q-n{n}-{fmt}", "stability-q", "bounds-n1000", fmt,
                      ("--nodes", ",".join(map(str, nodes))),
                      {"kind": "stability-q", "nodes": nodes}))
    return InputSet(inputs, ops)


def _oracle_verify(rng: random.Random) -> InputSet:
    # the simplex oracle is ~90% of the time: a change to it shows here only
    inputs, ops = {}, []
    for n in (6, 9, 12, 15, 16):
        for a in (1.0, 1.5, 2.0, 3.0):
            key = f"suite-n{n}-a{a:g}"
            cases = [[1.0] * n, unit_region_volumes(rng, n), unit_region_volumes(rng, n)]
            inputs[key] = {"n_values": [n], "exponents": [a], "volumes": cases, "random_q": 0}
            fmt = "json" if a in (1.0, 2.0) else "csv"
            ops.append(Op(f"verify-n{n}-a{a:g}", "verify", key, fmt, spec={"kind": "verify"}))
    return InputSet(inputs, ops)


def _stability_scan(rng: random.Random) -> InputSet:
    # thousands of solves of at most ~120 unknowns: per-call overhead, not
    # flops, dominates, so added per-call set-up shows as a regression
    series = _series(rng)
    inputs, ops = {}, []
    for n in (8, 16, 24):
        for i in range(1, n + 1):
            # a cost series per op: how many bisection probes a node needs
            # depends on the series, and one series per pass would make the
            # pass's median op depend on that one draw
            key = f"unit-n{n}-node{i}"
            inputs[key] = {"n": n, "volumes": [1.0] * n, "cost": _series(rng)}
            ops.append(Op(f"stability-d-n{n}-node{i}", "stability-d", key,
                          "json" if i % 2 else "csv", ("--nodes", str(i)),
                          {"kind": "stability-d", "node": i}))
    n = 60
    inputs["sweep-n60"] = {"n": n, "volumes": unit_region_volumes(rng, n), "cost": series}
    i = rng.randint(1, n)
    lo, hi, step = -0.9, 0.9, 0.045
    ops.append(Op("sweep-d-n60", "sweep", "sweep-n60", "json",
                  ("--param", f"d{i}", f"--grid={lo!r}:{hi!r}:{step!r}"),
                  {"kind": "sweep", "param": "d", "node": i, "grid": (lo, hi, step)}))
    n = 200
    doc = {"n": n, "volumes": unit_region_volumes(rng, n), "cost": series}
    inputs["sweep-n200"] = doc
    # 40 volumes of the last node straddling its minimum, none on it
    step = reference.volume_bound(n, doc["volumes"], terms_of(doc), n) / 20.0
    lo = 0.5 * step
    hi = lo + 39 * step
    ops.append(Op("sweep-Q-n200", "sweep", "sweep-n200", "csv",
                  ("--param", f"Q{n}", f"--grid={lo!r}:{hi!r}:{step!r}"),
                  {"kind": "sweep", "param": "Q", "node": n, "grid": (lo, hi, step)}))
    return InputSet(inputs, ops)


_BUILDERS = {
    "large-chain": _large_chain,
    "oracle-verify": _oracle_verify,
    "stability-scan": _stability_scan,
}
WORKLOADS = tuple(_BUILDERS)


def input_set(workload: str, seed: int, index: int) -> InputSet:
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}:{index}"))
