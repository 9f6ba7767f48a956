"""Byte-parity check: hash every benchmark op's result from one source tree.

Usage: python tools/parity.py SRC

Runs every op of the three benchmark workloads (bench/workloads.py, all
input sets of seeds 1-3) in-process through chainlife.cli.main imported
from SRC, the directory that holds the chainlife package.  Each op's exit
code, stdout, stderr and output file are hashed, and one sha256 per
workload is printed.  Two trees with equal hashes give byte-identical
results on every op.  Inputs and outputs live in a temporary directory,
entered as the working directory so that no path in a message differs
between runs; bench/ is only imported.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)


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
                output = f"out.{op.fmt}"
                with contextlib.suppress(FileNotFoundError):
                    os.remove(output)
                argv = [op.command, "--input", f"{op.input}.json", "--output", output,
                        "--format", op.fmt, *op.extra]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                try:
                    with open(output, "rb") as handle:
                        written = handle.read()
                except FileNotFoundError:
                    written = b"<no output file>"
                for part in (op.name, str(rc), out.getvalue(), err.getvalue()):
                    digest.update(part.encode() + b"\0")
                digest.update(written + b"\0")
                ops += 1
    return digest.hexdigest(), ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory holding the chainlife package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(BENCH)]
    from chainlife import cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"chainlife imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in workloads.WORKLOADS:
            digest, ops = _workload_hash(cli, workloads, workload)
            print(f"{workload}: {ops} ops sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
