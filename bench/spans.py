"""In-memory spans around calls into chainlife, installed from outside src/.

Each traced function is replaced, in the namespace of the module that calls
it, by a wrapper that records one span: name, parent span, op id, start, end,
an optional value taken from the call (bytes emitted, LP pivots) and whether
it raised.  Spans go into flat arrays while the run lasts and are written out
once at the end.  A span's self time is its duration minus the durations of
its child spans, which nest exactly because the program is single-threaded.
"""
from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter


def _bytes_out(args, result) -> float:
    return len(result.encode("utf-8"))


def _pivots(args, result) -> float:
    return result.iterations


def _bad_rows(args) -> int:
    return sum(row["status"] != "optimal" for row in args[0])


def _targets(cl):
    """(module, attribute, span name, value, counts bad rows) for every traced call.

    cl is the chainlife package.  Names are "<layer>:<function>"; functions
    are wrapped where their caller looks them up, e.g. the cost layer as
    perturbed, oracle and regular bind it.
    """
    cli, docs = cl.cli, cl.documents
    out = [(cli, "main", "cli:main", None, False),
           (docs, "load_network", "documents.parse:load_network", None, False),
           (docs, "json_dumps", "documents.emit:json_dumps", _bytes_out, False)]
    for name in ("solution_csv", "stability_q_csv", "stability_d_csv", "sweep_csv"):
        out.append((docs, name, f"documents.emit:{name}", _bytes_out, False))
    out.append((docs, "verify_csv", "documents.emit:verify_csv", _bytes_out, True))
    out.append((docs, "verify_document", None, None, True))
    for name in ("flow_closed_form", "raw_flows", "node_energy_closed_form"):
        out.append((cli, name, f"regular.solve:{name}", None, False))
    for name in ("q_n_min", "q_i_max", "check_q_constraints", "stability_region_Q_check"):
        out.append((cli, name, f"regular.bounds:{name}", None, False))
    out += [
        (cli, "solve_equal_energy", "perturbed.solve:solve_equal_energy", None, False),
        (cli, "numeric_d_interval", "perturbed.interval:numeric_d_interval", None, False),
        (cli, "stability_bounds_d", "perturbed.interval:stability_bounds_d", None, False),
        (cl.perturbed, "assemble_system", "perturbed.assemble:assemble_system", None, False),
        (cl.perturbed, "transmission_cost", "cost:transmission_cost@perturbed", None, False),
        (cl.oracle, "transmission_cost", "cost:transmission_cost@oracle", None, False),
        (cl.regular, "unit_hop_costs", "cost:unit_hop_costs@regular", None, False),
        (cli, "formulate", "oracle.formulate:formulate", None, False),
        (cli, "lp_solve", "oracle.solve:solve", _pivots, False),
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.raised = array("b")
        self.bad_rows = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list = []

    def install(self, chainlife) -> None:
        for module, attr, span, value, rows in _targets(chainlife):
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span, value, rows))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span, value, rows):
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.bad_rows += _bad_rows(args)
                return fn(*args, **kwargs)
            return counted

        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.value.append(0.0)
            self.raised.append(0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[sid] = 1
                raise
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if value is not None:
                self.value[sid] = value(args, result)
            if rows:
                self.bad_rows += _bad_rows(args)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds, total value, calls that raised;
        plus the solves made inside numeric_d_interval."""
        count = len(self.start)
        duration = array("d", (self.end[k] - self.start[k] for k in range(count)))
        child = array("d", bytes(8 * count))
        for k in range(count):
            if self.parent[k] >= 0:
                child[self.parent[k]] += duration[k]
        per_name: dict[str, dict] = {}
        for k in range(count):
            row = per_name.setdefault(self.names[self.name[k]],
                                      {"calls": 0, "self_s": 0.0, "value": 0.0, "raised": 0})
            row["calls"] += 1
            row["self_s"] += duration[k] - child[k]
            row["value"] += self.value[k]
            row["raised"] += self.raised[k]
        interval = self.names.index("perturbed.interval:numeric_d_interval")
        assemble = self.names.index("perturbed.assemble:assemble_system")
        probes = 0
        for k in range(count):
            if self.name[k] == assemble:
                p = self.parent[k]
                while p >= 0 and self.name[p] != interval:
                    p = self.parent[p]
                probes += p >= 0
        return {"spans": count, "names": per_name, "interval_probes": probes,
                "bad_rows": self.bad_rows}

    def write(self, path: str) -> None:
        """Write every span: one JSON header line, then each column's raw
        machine-order array in the header's order."""
        columns = ("name", "parent", "op", "start", "end", "value", "raised")
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [[c, getattr(self, c).typecode] for c in columns]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                getattr(self, column).tofile(handle)
