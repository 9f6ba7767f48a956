"""Byte-parity check: hash every benchmark op's result from one source tree.

Usage: python tools/parity.py SRC
       python tools/parity.py PARENT_SRC CHANGE_SRC

Runs every op of the three benchmark workloads (bench/workloads.py, all
input sets of seeds 1-3) in-process through chainlife.cli.main imported
from SRC, the directory that holds the chainlife package.  Each op's
exit code, stdout, stderr and output file are hashed, and one sha256 per
workload is printed.  Three more fixed cases cover stability-d and
verify beyond the workloads, one line each: ``stability-d --nodes all``
at n = 9, 300 and 10^4 (cost 0.5 s + 0.5 s^2, unit volumes) in JSON and
CSV, through cli.main as above; ``verify`` at n = 300, 1000 and 2000
(exponents 1, 1.5, 2 and 3, unit volumes and two seeded unit-region
draws) in JSON and CSV, whose certificates span many blocks of rows
where the workloads' fit in one; and numeric_d_intervals over all nodes
of 1,500 seeded random chains (see _corpus), called directly because
half of them have volumes other than 1, hashing the repr of each chain's
intervals or of its error.  Two more lines cover the LP: ``verify`` at
n = 3 to 12 with a last volume of 0.01, whose rows outside the volume
region are solved by HiGHS, in JSON and CSV through cli.main; and the
bytes of ``oracle.formulate``'s cost matrix and its volumes on 203
seeded regular and shifted chains (see _lp_corpus), called directly.
Two trees with equal hashes give byte-identical results on every op and
chain.  Inputs and outputs live in a temporary directory, entered as the
working directory so that no path in a message differs between runs;
bench/ is only imported.  A run takes about 6 s of CPU time (2-core AMD
EPYC, Python 3.11.7); its wall time is mostly the creation of output
files, and was 16 to 80 s on the disks tried.

Given two directories, the script hashes each in a subprocess of its own,
one after the other, and prints both hashes on each line with ``same`` or
``DIFFERENT``; it exits 1 if any line differs (or a run fails) and 0 when
every line is the same.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)
STABILITY_D_SIZES = (9, 300, 10_000)
VERIFY_SIZES = (300, 1000, 2000)
CORPUS_CHAINS = 1500
OUTSIDE_SIZES = range(3, 13)
LP_CHAINS = 200


def _hash_op(cli, digest, name: str, fmt: str, argv: list[str]) -> None:
    """Run one CLI op writing to out.<fmt> and hash its name, exit code, streams and file."""
    output = f"out.{fmt}"
    with contextlib.suppress(FileNotFoundError):
        os.remove(output)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--format", fmt, "--output", output])
    try:
        with open(output, "rb") as handle:
            written = handle.read()
    except FileNotFoundError:
        written = b"<no output file>"
    for part in (name, str(rc), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    digest.update(written + b"\0")


def _workload_hash(cli, workloads, workload: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    ops = 0
    for seed in SEEDS:
        for k in range(workloads.INPUT_SETS):
            inset = workloads.input_set(workload, seed, k)
            for key, doc in inset.inputs.items():
                with open(f"{key}.json", "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
            for op in inset.ops:
                argv = [op.command, "--input", f"{op.input}.json", *op.extra]
                _hash_op(cli, digest, op.name, op.fmt, argv)
                ops += 1
    return digest.hexdigest(), ops


def _stability_d_hash(cli) -> tuple[str, int]:
    digest = hashlib.sha256()
    ops = 0
    for n in STABILITY_D_SIZES:
        terms = [{"lambda": 0.5, "exponent": 1.0}, {"lambda": 0.5, "exponent": 2.0}]
        with open("chain.json", "w", encoding="utf-8") as handle:
            json.dump({"n": n, "volumes": [1.0] * n, "cost": {"terms": terms}}, handle)
        for fmt in ("json", "csv"):
            argv = ["stability-d", "--input", "chain.json", "--nodes", "all"]
            _hash_op(cli, digest, f"stability-d-n{n}-{fmt}", fmt, argv)
            ops += 1
    return digest.hexdigest(), ops


def _verify_hash(cli) -> tuple[str, int]:
    digest = hashlib.sha256()
    suite = {"n_values": list(VERIFY_SIZES), "exponents": [1.0, 1.5, 2.0, 3.0],
             "volumes": "unit", "random_q": 2}
    with open("suite.json", "w", encoding="utf-8") as handle:
        json.dump(suite, handle)
    for fmt in ("json", "csv"):
        argv = ["verify", "--input", "suite.json", "--seed", "7"]
        _hash_op(cli, digest, f"verify-{fmt}", fmt, argv)
    return digest.hexdigest(), 2


def _verify_outside_hash(cli) -> tuple[str, int]:
    digest = hashlib.sha256()
    ops = 0
    for n in OUTSIDE_SIZES:
        suite = {"n_values": [n], "exponents": [1.0, 1.5, 2.0, 3.0],
                 "volumes": [[1.0] * n, [1.0] * (n - 1) + [0.01]], "random_q": 0}
        with open("suite.json", "w", encoding="utf-8") as handle:
            json.dump(suite, handle)
        for fmt in ("json", "csv"):
            argv = ["verify", "--input", "suite.json"]
            _hash_op(cli, digest, f"verify-outside-n{n}-{fmt}", fmt, argv)
            ops += 1
    return digest.hexdigest(), ops


def _lp_corpus(chainlife, np):
    """The chains of the LP line, drawn from default_rng(11).

    LP_CHAINS chains of 1-60 nodes, every other one with about half its
    nodes shifted by up to 0.45 either way, then regular chains of 300 and
    1,000 nodes and a shifted one of 300; the cost is one term with
    exponent 1-5 or two equal-weight terms with exponents 1-3 and 2-5, and
    the volumes are drawn from [0.5, 2].
    """
    rng = np.random.default_rng(11)
    kinds = [(int(rng.integers(1, 61)), k % 2 == 1) for k in range(LP_CHAINS)]
    for n, shifted in kinds + [(300, False), (1000, False), (300, True)]:
        if rng.random() < 0.5:
            terms = [(1.0, float(rng.uniform(1.0, 5.0)))]
        else:
            terms = [(0.5, float(rng.uniform(1.0, 3.0))), (0.5, float(rng.uniform(2.0, 5.0)))]
        shifts = (0.0,) * n
        if shifted:
            shifts = tuple(np.where(rng.random(n) < 0.5, rng.uniform(-0.45, 0.45, n), 0.0).tolist())
        volumes = tuple(float(q) for q in rng.uniform(0.5, 2.0, n))
        yield chainlife.PerturbedNetwork(n, shifts, volumes, chainlife.build_cost_series(terms))


def _lp_hash(chainlife, np) -> tuple[str, int]:
    digest = hashlib.sha256()
    chains = 0
    for net in _lp_corpus(chainlife, np):
        inst = chainlife.oracle.formulate(net)
        digest.update(inst.costs.tobytes() + repr(inst.volumes).encode() + b"\0")
        chains += 1
    return digest.hexdigest(), chains


def _corpus(chainlife, np):
    """The 1,500 unshifted chains of the corpus, drawn from default_rng(5).

    n is 2-60, and 300-1,500 for every 50th chain; the cost is one term
    with exponent 1-5, or two equal-weight terms with exponents 1-3 and
    2-8; half the chains have unit volumes, the others volumes drawn
    from [0.5, 2].
    """
    rng = np.random.default_rng(5)
    for k in range(CORPUS_CHAINS):
        n = int(rng.integers(300, 1501) if k % 50 == 49 else rng.integers(2, 61))
        if rng.random() < 0.5:
            terms = [(1.0, float(rng.uniform(1.0, 5.0)))]
        else:
            terms = [(0.5, float(rng.uniform(1.0, 3.0))), (0.5, float(rng.uniform(2.0, 8.0)))]
        if rng.random() < 0.5:
            volumes = (1.0,) * n
        else:
            volumes = tuple(float(q) for q in rng.uniform(0.5, 2.0, n))
        series = chainlife.build_cost_series(terms)
        yield chainlife.PerturbedNetwork(n, (0.0,) * n, volumes, series)


def _corpus_hash(chainlife, np) -> tuple[str, int]:
    digest = hashlib.sha256()
    endpoints = 0
    for net in _corpus(chainlife, np):
        try:
            intervals = chainlife.numeric_d_intervals(net, range(1, net.n + 1))
        except chainlife.ChainlifeError as exc:
            text = repr((type(exc).__name__, str(exc)))
        else:
            text = repr(intervals)
            endpoints += 2 * len(intervals)
        digest.update(text.encode() + b"\0")
    return digest.hexdigest(), endpoints


def _compare(parent: str, change: str) -> int:
    """Hash both trees, each in its own interpreter, and print their lines side by side."""
    outputs = []
    for tree in (parent, change):
        run = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), tree], capture_output=True, text=True
        )
        sys.stderr.write(run.stderr)
        if run.returncode:
            return 1
        outputs.append(run.stdout.splitlines())
    same = True
    for old, new in itertools.zip_longest(*outputs, fillvalue=""):
        head, _, old_hash = old.rpartition(" sha256 ")
        new_head, _, new_hash = new.rpartition(" sha256 ")
        verdict = "same" if old == new else "DIFFERENT"
        same = same and old == new
        if head == new_head:
            print(f"{head} sha256 {old_hash} {new_hash} {verdict}")
        else:
            print(f"{old} | {new} {verdict}")
    return 0 if same else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the chainlife package")
    parser.add_argument("change", nargs="?", help="a second such directory, compared with SRC")
    args = parser.parse_args(argv)
    if args.change is not None:
        return _compare(args.src, args.change)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(BENCH)]
    import chainlife
    import numpy as np
    from chainlife import cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"chainlife imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in workloads.WORKLOADS:
            digest, ops = _workload_hash(cli, workloads, workload)
            print(f"{workload}: {ops} ops sha256 {digest}")
        digest, ops = _stability_d_hash(cli)
        print(f"stability-d all nodes: {ops} ops sha256 {digest}")
        digest, ops = _verify_hash(cli)
        print(f"verify n {'/'.join(map(str, VERIFY_SIZES))}: {ops} ops sha256 {digest}")
        digest, ops = _verify_outside_hash(cli)
        print(f"verify outside region n 3-12: {ops} ops sha256 {digest}")
    digest, endpoints = _corpus_hash(chainlife, np)
    print(f"stability-d corpus: {CORPUS_CHAINS} chains, {endpoints} endpoints sha256 {digest}")
    digest, chains = _lp_hash(chainlife, np)
    print(f"LP formulate: {chains} chains sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
