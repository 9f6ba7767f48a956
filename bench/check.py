"""Output checker: judges every CLI op against the independent reference.

A check reads the op's output file (never chainlife), recomputes what the
output claims with the reference model and compares numbers within stated
tolerances, so a correct solver that rounds differently still passes.  An op
fails on an unexpected exit code, an escaped exception, a missing, stale or
later-modified output file, or any rejected value.
"""
from __future__ import annotations

import csv
import io
import json
import os

import reference
from workloads import Op, terms_of

FLOW_TOL = 1e-8      # flows and residuals, relative to max(1, largest reference flow)
SPREAD_TOL = 1e-8    # node-energy spread recomputed from the output flows, relative
ENERGY_TOL = 1e-9    # common energies, relative to max(1, E)
BOUND_TOL = 1e-6     # volume limits, relative (two-point roots of flows ~1e6)
SHIFT_TOL = 1e-8     # shift-interval endpoints, absolute (bisection stops at 1e-10)
LP_TOL = 1e-7        # verify's documented tolerance on |LP optimum - closed form|
SIGN_BAND = 1e-7     # |min flow| / scale below this: both verdicts are accepted


class Rejected(Exception):
    """The output is wrong; the message says how."""


def file_stat(path: str) -> list[int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return [st.st_ino, st.st_size, st.st_mtime_ns]


def _close(value, want: float, tol: float, what: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise Rejected(f"{what}: {value!r} is not a number")
    if not abs(value - want) <= tol * max(1.0, abs(want)):
        raise Rejected(f"{what}: {value!r}, reference {want!r}")


def _equal(value, want, what: str) -> None:
    if value != want:
        raise Rejected(f"{what}: {value!r}, expected {want!r}")


def _csv_rows(text: str, header: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != header:
        raise Rejected(f"CSV header {rows[0] if rows else None!r}, expected {header!r}")
    return rows[1:]


def _real(cell: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise Rejected(f"CSV cell {cell!r} is not a number") from exc


class Checker:
    """Checks op records of one run; keeps the worst accuracy readings seen."""

    def __init__(self) -> None:
        self.max_flow_error = 0.0
        self.max_energy_spread = 0.0
        self._cache: dict = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, op: Op, doc: dict, rec: dict) -> str | None:
        """Why one op failed, or None when it passed."""
        if rec.get("exc"):
            return f"escaped exception: {rec['exc']}"
        try:
            expected = self._expected_exit(op, doc)
            if rec["rc"] not in expected:
                raise Rejected(
                    f"exit code {rec['rc']}, expected {sorted(expected)}"
                    + (f" ({rec['stderr'].strip()[:160]})" if rec.get("stderr") else "")
                )
            if rec["rc"] != 0:
                return None
            text = self._fresh_output(rec)
            getattr(self, "_check_" + op.spec["kind"].replace("-", "_"))(op, doc, text)
        except Rejected as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    # -- framing ----------------------------------------------------------

    def _expected_exit(self, op: Op, doc: dict) -> set[int]:
        if op.spec["kind"] != "solve":
            return {0}
        sol = self._solve(doc)
        margin = SIGN_BAND * _scale(sol)
        if sol.min_flow > margin:
            return {0}
        if sol.min_flow < -margin:
            return {2}
        return {0, 2}

    @staticmethod
    def _fresh_output(rec: dict) -> str:
        post = rec.get("post")
        if post is None:
            raise Rejected("no output file")
        if rec.get("pre") is not None and rec["pre"] == post:
            raise Rejected("stale output file: the op left it unchanged")
        if file_stat(rec["output"]) != post:
            raise Rejected("output file changed after the op")
        with open(rec["output"], encoding="utf-8") as handle:
            return handle.read()

    def _solve(self, doc: dict, volumes=None, shifts=None) -> reference.ChainSolution:
        volumes = doc["volumes"] if volumes is None else volumes
        shifts = doc.get("shifts") if shifts is None else shifts
        key = ("solve", id(doc), tuple(volumes), None if shifts is None else tuple(shifts))
        return self._memo(key, lambda: reference.solve(doc["n"], volumes, terms_of(doc), shifts))

    # -- per command ------------------------------------------------------

    def _check_solve(self, op: Op, doc: dict, text: str) -> None:
        n, terms = doc["n"], terms_of(doc)
        x = reference.positions(n, doc.get("shifts"))
        ref = self._solve(doc)
        scale = _scale(ref)
        if op.fmt == "json":
            out = json.loads(text)
            rows = [(f["from"], f["to"], f["amount"]) for f in out["flows"]]
            _close(out["common_energy"], ref.energy, ENERGY_TOL, "common_energy")
            _equal(len(out["node_energies"]), n, "node_energies length")
            for i, e in enumerate(out["node_energies"], start=1):
                _close(e, ref.energy, ENERGY_TOL, f"energy of node {i}")
        else:
            rows = [(int(i), int(j), _real(v)) for i, j, v in _csv_rows(text, "from,to,amount")]
        flows: dict[tuple[int, int], float] = {}
        for i, j, value in rows:
            if not (1 <= i <= n and 0 <= j <= n and i != j) or (i, j) in flows:
                raise Rejected(f"bad or repeated flow index ({i},{j})")
            flows[(i, j)] = value
        lowest = min(flows.values())
        if lowest < -FLOW_TOL * scale:
            raise Rejected(f"negative flow {lowest!r}")
        residual = [-float(q) for q in doc["volumes"]]
        energy = [0.0] * n
        for (i, j), value in flows.items():
            residual[i - 1] += value
            if j:
                residual[j - 1] -= value
            energy[i - 1] += value * reference.cost(terms, x[i] - x[j])
        worst = max(abs(r) for r in residual)
        if worst > FLOW_TOL * scale:
            raise Rejected(f"conservation broken by {worst!r}")
        spread = (max(energy) - min(energy)) / max(1.0, max(energy))
        self.max_energy_spread = max(self.max_energy_spread, spread)
        if spread > SPREAD_TOL:
            raise Rejected(f"node energies spread by {spread!r}")
        error = max(abs(flows.get(p, 0.0) - ref.flows.get(p, 0.0))
                    for p in set(flows) | set(ref.flows)) / scale
        self.max_flow_error = max(self.max_flow_error, error)
        if error > FLOW_TOL:
            raise Rejected(f"flows differ from the reference by {error!r}")

    def _check_stability_q(self, op: Op, doc: dict, text: str) -> None:
        n, q, terms = doc["n"], doc["volumes"], terms_of(doc)
        nodes = op.spec["nodes"]
        if op.fmt == "json":
            out = json.loads(text)
            rows = [(r["node"], r["q_min"], r["q_max"]) for r in out["nodes"]]
            ref = self._solve(doc)
            _equal(out["q_constraints_ok"], q[0] >= 1.0 - 1e-12 and ref.min_flow > 0.0,
                   "q_constraints_ok")
            _equal(out["unit_region"],
                   all(v >= 1.0 for v in q) and sum(q) < 1.5 * n if n >= 3 else None,
                   "unit_region")
        else:
            rows = [(int(i), None if lo == "-inf" else _real(lo), None if hi == "inf" else _real(hi))
                    for i, lo, hi in _csv_rows(text, "node,q_min,q_max")]
        _equal([r[0] for r in rows], nodes, "nodes")
        for i, lo, hi in rows:
            bound = self._memo(("bound", id(doc), i),
                               lambda: reference.volume_bound(n, q, terms, i))
            want_lo, want_hi = (bound, None) if i == n else (0.0, bound)
            for value, want, what in ((lo, want_lo, "q_min"), (hi, want_hi, "q_max")):
                if want is None:
                    _equal(value, None, f"{what} of node {i}")
                else:
                    _close(value, want, BOUND_TOL, f"{what} of node {i}")

    def _check_stability_d(self, op: Op, doc: dict, text: str) -> None:
        n, terms, i = doc["n"], terms_of(doc), op.spec["node"]
        if op.fmt == "json":
            out = json.loads(text)
            _equal(len(out), 1, "rows")
            row = out[0]
            got = (row["node"], *row["envelope"], *row["numeric"])
            _equal(len(row["series"]), len(terms), "series terms")
            for term, (lam, a) in zip(row["series"], terms):
                _close(term["lambda"], lam, 1e-15, "series lambda")
                _close(term["exponent"], a, 1e-15, "series exponent")
        else:
            rows = _csv_rows(text, "node,env_lo,env_hi,num_lo,num_hi")
            _equal(len(rows), 1, "rows")
            got = (int(rows[0][0]), *map(_real, rows[0][1:]))
        _equal(got[0], i, "node")
        # the envelope is the exact interval for cost = distance (exponent 1)
        envelope = self._memo(("shift", n, i, ((1.0, 1.0),)),
                              lambda: reference.shift_interval(n, [(1.0, 1.0)], i))
        numeric = self._memo(("shift", n, i, tuple(terms)),
                             lambda: reference.shift_interval(n, terms, i))
        for value, want, what in zip(got[1:], (*envelope, *numeric),
                                     ("env_lo", "env_hi", "num_lo", "num_hi")):
            if not isinstance(value, (int, float)) or abs(value - want) > SHIFT_TOL:
                raise Rejected(f"{what} of node {i}: {value!r}, reference {want!r}")

    def _check_sweep(self, op: Op, doc: dict, text: str) -> None:
        n, i = doc["n"], op.spec["node"]
        values = reference.grid(*op.spec["grid"])
        if op.fmt == "json":
            rows = [(r["param"], r["common_energy"], r["outside"], r["min_flow"])
                    for r in json.loads(text)]
        else:
            rows = [(_real(p), None if e == "outside" else _real(e), e == "outside", _real(m))
                    for p, e, m in _csv_rows(text, "param,common_energy,min_flow")]
        _equal(len(rows), len(values), "grid points")
        for (param, energy, outside, min_flow), value in zip(rows, values):
            _close(param, value, 1e-12, "grid value")
            if op.spec["param"] == "d":
                shifts = [0.0] * n
                shifts[i - 1] = value
                ref = self._solve(doc, shifts=shifts)
            else:
                volumes = list(doc["volumes"])
                volumes[i - 1] = value
                ref = self._solve(doc, volumes=volumes)
            scale = _scale(ref)
            where = f"at {op.spec['param']}{i} = {value!r}"
            _close(min_flow, ref.min_flow, FLOW_TOL * scale, f"min_flow {where}")
            self.max_flow_error = max(self.max_flow_error, abs(min_flow - ref.min_flow) / scale)
            if abs(ref.min_flow) > SIGN_BAND * scale:
                _equal(outside, ref.min_flow < 0.0, f"outside {where}")
            if outside != (energy is None):
                raise Rejected(f"outside flag and energy disagree {where}")
            if energy is not None:
                _close(energy, ref.energy, ENERGY_TOL, f"common_energy {where}")

    def _check_verify(self, op: Op, doc: dict, text: str) -> None:
        n, a = doc["n_values"][0], float(doc["exponents"][0])
        cases = doc["volumes"]
        if op.fmt == "json":
            out = json.loads(text)
            rows = out["instances"]
            _equal(out["all_optimal"], True, "all_optimal")
            _close(out["tolerance"], LP_TOL, 1e-12, "tolerance")
            for row, case in zip(rows, cases):
                _equal(row["series"], [{"lambda": 1.0, "exponent": a}], "series")
                _equal(row["volumes"], case, "volumes")
        else:
            rows = [
                {"n": int(r[0]), "closed_form": _real(r[2]), "lp": _real(r[3]),
                 "gap": _real(r[4]), "status": r[5]}
                for r in _csv_rows(text, "n,series,closed_form,lp,gap,status")
            ]
        _equal(len(rows), len(cases), "instances")
        for k, (row, case) in enumerate(zip(rows, cases)):
            energy = self._memo(("verify", n, a, tuple(case)),
                                lambda: reference.solve(n, case, [(1.0, a)]).energy)
            _equal(row["n"], n, f"n of instance {k}")
            _close(row["closed_form"], energy, ENERGY_TOL, f"closed_form of instance {k}")
            if not abs(row["lp"] - energy) <= LP_TOL:
                raise Rejected(f"LP optimum of instance {k}: {row['lp']!r}, reference {energy!r}")
            _equal(row["status"], "optimal", f"status of instance {k}")


def _scale(sol: reference.ChainSolution) -> float:
    return max(1.0, max(abs(v) for v in sol.flows.values()))
