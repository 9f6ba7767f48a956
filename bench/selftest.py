"""Self-test of the output checker; run.py runs it before every measurement.

The checker is fed outputs written from the reference, right ones and ones
wrong in the ways a broken program could be: a flow with its sign flipped, a
wrong exit code, a stale output file, an output for other inputs, an escaped
exception.  Each wrong one must count as a failed op and each right one must
pass.  The reference peel is also cross-checked against numpy.linalg.solve on
a dense balance system assembled here.

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import reference
from check import Checker, file_stat
from workloads import Op, terms_of, unit_region_volumes


def _write_solution(doc: dict, path: Path, fmt: str, flip: bool = False) -> None:
    sol = reference.solve(doc["n"], doc["volumes"], terms_of(doc), doc.get("shifts"))
    flows = dict(sol.flows)
    if flip:
        largest = max(flows, key=lambda pair: abs(flows[pair]))
        flows[largest] = -flows[largest]
    rows = sorted(flows.items())
    if fmt == "json":
        text = json.dumps({
            "flows": [{"from": i, "to": j, "amount": v} for (i, j), v in rows],
            "node_energies": [sol.energy] * doc["n"],
            "common_energy": sol.energy,
        })
    else:
        text = "from,to,amount\n" + "".join(f"{i},{j},{v:.12g}\n" for (i, j), v in rows)
    path.write_text(text, encoding="utf-8")


def _record(path: Path, rc: int | None, pre=None, exc: str | None = None) -> dict:
    return {"rc": rc, "exc": exc, "stderr": "", "output": str(path), "pre": pre,
            "post": file_stat(str(path))}


def _dense_flows(doc: dict) -> dict:
    """Equal-energy flows from numpy.linalg.solve on the 2n-1 balance rows."""
    import numpy as np

    n, terms = doc["n"], terms_of(doc)
    x = reference.positions(n, doc.get("shifts"))
    direct = [reference.cost(terms, x[i]) for i in range(n + 1)]
    left = [0.0] + [reference.cost(terms, x[i] - x[i - 1]) for i in range(1, n + 1)]
    col_direct = {i: i - 1 for i in range(1, n + 1)}
    col_left = {i: n + i - 2 for i in range(2, n + 1)}
    m = np.zeros((2 * n - 1, 2 * n - 1))
    rhs = np.zeros(2 * n - 1)
    for i in range(1, n + 1):  # conservation: sent = own volume + received
        m[i - 1, col_direct[i]] = 1.0
        if i >= 2:
            m[i - 1, col_left[i]] = 1.0
        if i < n:
            m[i - 1, col_left[i + 1]] = -1.0
        rhs[i - 1] = doc["volumes"][i - 1]
    for i in range(1, n):  # energy of node i equals energy of node i + 1
        row = n + i - 1
        m[row, col_direct[i]] += direct[i]
        if i >= 2:
            m[row, col_left[i]] += left[i]
        m[row, col_direct[i + 1]] -= direct[i + 1]
        m[row, col_left[i + 1]] -= left[i + 1]
    q = np.linalg.solve(m, rhs)
    flows = {(i, 0): float(q[col_direct[i]]) for i in range(1, n + 1)}
    flows.update({(i, i - 1): float(q[col_left[i]]) for i in range(2, n + 1)})
    return flows


def run(workdir: Path) -> list[str]:
    """Checker and reference problems; an empty list means the self-test passed."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random("selftest")
    series = {"terms": [{"lambda": 0.4, "exponent": 1.3}, {"lambda": 0.6, "exponent": 2.6}],
              "auto_normalize": False}
    n = 7
    doc = {"n": n, "volumes": unit_region_volumes(rng, n), "cost": series}
    other = {"n": n, "volumes": unit_region_volumes(rng, n), "cost": series}
    low = dict(doc, volumes=doc["volumes"][:-1]
               + [0.5 * reference.volume_bound(n, doc["volumes"], terms_of(doc), n)])
    solve = Op("solve-regular", "solve-regular", "net", "json", spec={"kind": "solve"})
    solve_csv = Op("solve-regular", "solve-regular", "net", "csv", spec={"kind": "solve"})

    def path(name: str) -> Path:
        target = workdir / name
        target.unlink(missing_ok=True)
        return target

    cases = []
    good = path("good.json")
    _write_solution(doc, good, "json")
    cases.append(("correct JSON output", solve, doc, _record(good, 0), True))
    good_csv = path("good.csv")
    _write_solution(doc, good_csv, "csv")
    cases.append(("correct CSV output", solve_csv, doc, _record(good_csv, 0), True))
    for fmt, op in (("json", solve), ("csv", solve_csv)):
        flipped = path(f"flipped.{fmt}")
        _write_solution(doc, flipped, fmt, flip=True)
        cases.append((f"one flow sign flipped ({fmt})", op, doc, _record(flipped, 0), False))
    cases.append(("exit code 3 on a feasible chain", solve, doc, _record(good, 3), False))
    cases.append(("exit code 2 on a feasible chain", solve, doc, _record(good, 2), False))
    infeasible = path("infeasible.json")
    _write_solution(low, infeasible, "json")
    cases.append(("exit code 0 where a reference flow is negative", solve, low,
                  _record(infeasible, 0), False))
    cases.append(("exit code 2 where a reference flow is negative", solve, low,
                  _record(path("none.json"), 2), True))
    stale = path("stale.json")
    _write_solution(doc, stale, "json")
    cases.append(("stale output file left unchanged by the op", solve, doc,
                  _record(stale, 0, pre=file_stat(str(stale))), False))
    cases.append(("no output file", solve, doc, _record(path("missing.json"), 0), False))
    foreign = path("foreign.json")
    _write_solution(other, foreign, "json")
    cases.append(("output for other inputs", solve, doc, _record(foreign, 0), False))
    cases.append(("escaped exception", solve, doc,
                  _record(good, None, exc="ValueError: documents only carry finite reals"), False))

    problems = []
    checker = Checker()
    for label, op, net, rec, should_pass in cases:
        verdict = checker.check(op, net, rec)
        if should_pass and verdict is not None:
            problems.append(f"{label}: rejected ({verdict})")
        if not should_pass and verdict is None:
            problems.append(f"{label}: accepted")

    for size in (2, 5, 9):
        shifted = {"n": size, "volumes": unit_region_volumes(rng, size), "cost": series,
                   "shifts": [rng.uniform(-0.3, 0.3) for _ in range(size)]}
        peel = reference.solve(size, shifted["volumes"], terms_of(shifted), shifted["shifts"])
        dense = _dense_flows(shifted)
        scale = max(1.0, max(abs(v) for v in dense.values()))
        error = max(abs(peel.flows[pair] - value) for pair, value in dense.items()) / scale
        if error > 1e-12:
            problems.append(f"reference peel differs from a dense solve by {error:.3g} at n={size}")
    return problems


def main() -> int:
    problems = run(Path(__file__).resolve().parent.parent / ".bench_run" / "selftest")
    for problem in problems:
        print("FAIL", problem)
    print("checker self-test:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
