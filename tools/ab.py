"""In-process A/B timing of one benchmark workload on two source trees.

Usage: python tools/ab.py PARENT_SRC CHANGE_SRC WORKLOAD

Imports the chainlife package of each tree (each directory holds a
chainlife package) into one process, side by side, and runs every op of
WORKLOAD's input sets (bench/workloads.py, seed 1, all 8 sets) through
each tree's chainlife.cli.main.  Each call writes its output to a new
file in a temporary directory, as bench/worker.py does, and the file is
removed after the call, outside the timing.  A round times every op on
both trees, the best of 3 calls each; within a round the tree that goes
first alternates from op to op, and the first op's order alternates from
round to round.  After 8 rounds it prints, per op kind (the op's name
without its node index), the median over the rounds of each tree's summed
time, the ratio change / parent of those medians and the rounds the
change won, and a last line for the whole pass.  A ratio below 1 means the change is faster.  The
output bytes are not compared; tools/parity.py does that.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1
ROUNDS = 8
REPEATS = 3


def _load(src: Path):
    """The cli module of the chainlife in ``src`` and every chainlife module it loaded."""
    for name in [m for m in sys.modules if m.split(".")[0] == "chainlife"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("chainlife.cli")
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"chainlife imported from {cli.__file__}, not from {src}")
    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "chainlife"}
    return cli, modules


def _best(tree, argv: list[str], calls: Iterator[int]) -> float:
    """The shortest of REPEATS timed cli.main(argv) calls of one tree.

    argv ends with its output file's name; each call writes a new file,
    that name prefixed with the next number of calls.
    """
    cli, modules = tree
    sys.modules.update(modules)  # a function-level import finds its own tree's modules
    best = math.inf
    for _ in range(REPEATS):
        output = f"{next(calls)}-{argv[-1]}"
        call = [*argv[:-1], output]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            cli.main(call)
            best = min(best, time.perf_counter() - start)
        # a new file per call, as bench/worker.py writes: a reused one adds a truncation
        with contextlib.suppress(FileNotFoundError):
            os.remove(output)
    return best


def _ops(workloads, workload: str) -> list[tuple[str, list[str]]]:
    """(kind, argv) of every op of the workload's input sets; writes their inputs here."""
    ops = []
    for k in range(workloads.INPUT_SETS):
        inset = workloads.input_set(workload, SEED, k)
        for key, doc in inset.inputs.items():
            with open(f"s{k}-{key}.json", "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        for op in inset.ops:
            argv = [op.command, "--input", f"s{k}-{op.input}.json", *op.extra,
                    "--format", op.fmt, "--output", f"out.{op.fmt}"]
            ops.append((re.sub(r"-node\d+$", "", op.name), argv))
    return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory holding the parent's chainlife package")
    parser.add_argument("change", help="directory holding the change's chainlife package")
    parser.add_argument("workload", help="a workload of bench/workloads.py")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    trees = [_load(Path(src).resolve()) for src in (args.parent, args.change)]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        ops = _ops(workloads, args.workload)
        calls = itertools.count()
        rounds = []
        for r in range(ROUNDS):
            sums = [dict.fromkeys([kind for kind, _ in ops], 0.0) for _ in trees]
            for j, (kind, op_argv) in enumerate(ops):
                for t in (0, 1) if (r + j) % 2 == 0 else (1, 0):
                    sums[t][kind] += _best(trees[t], op_argv, calls)
            rounds.append(sums)
    kinds = list(rounds[0][0]) + ["pass"]
    print(f"{args.workload}: {len(ops)} ops, {ROUNDS} rounds, best of {REPEATS} per op")
    print(f"{'kind':<28} {'parent ms':>10} {'change ms':>10} {'ratio':>7} {'won':>5}")
    for kind in kinds:
        per_round = [
            [sum(s.values()) if kind == "pass" else s[kind] for s in sums] for sums in rounds
        ]
        parent = statistics.median(p for p, _ in per_round)
        change = statistics.median(c for _, c in per_round)
        won = sum(c < p for p, c in per_round)
        print(f"{kind:<28} {parent * 1e3:10.3f} {change * 1e3:10.3f} "
              f"{change / parent:7.3f} {won:>2}/{ROUNDS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
