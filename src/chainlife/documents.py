"""Configuration parsing and result-document serialization.

JSON output formats reals with 17 significant digits (exact float round
trip); CSV output uses 12.  Both writers are deterministic: same inputs,
same bytes.  Apart from the reals, a JSON document reads as the standard
library's ``json.dumps(doc, indent=2)`` plus a newline, and tuples are
lists.  The serializer builds each container's text from its children's,
and picks a scalar's text by its exact type; subclasses such as
``numpy.float64`` take the isinstance checks instead.

Two kinds of value are written with one ``%`` format, because they are
the ones the benchmark's workloads write at length.  A solution's flows
take the column path: solution_document puts the solution's FlowMatrix
itself under ``"flows"``, and json_dumps and solution_csv write its
senders, receivers and amounts straight from the matrix's columns over a
repeated row template, a ``{"from", "to", "amount"}`` object in JSON and
``from,to,amount`` in CSV.  No per-flow dict or row is built and no shape
is checked: a FlowMatrix holds int indices and float amounts by
construction.  And a JSON list of exact floats (a solution's node
energies, verify's volumes) is joined with one ``"%.17g"``, which runs the
same float formatter as ``format(x, ".17g")``.  Both check the reals'
finiteness first.  Every other list and every CSV row is written value by
value.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Sequence

from .cost import CostSeries, build_cost_series, series_to_terms
from .errors import ChainlifeError, ConfigError
from .perturbed import EqualEnergySolution, PerturbedNetwork, StabilityInterval
from .validate import FlowMatrix

JSON_DIGITS = 17
CSV_DIGITS = 12
_JSON_REAL = f".{JSON_DIGITS}g"


def _real(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        real = float(value)
    except OverflowError:  # an integer literal beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{where} must be a finite number, got {real}")
    return real


def _reals(values: list, name: str) -> tuple[float, ...]:
    """The reals of a config list; one of exact finite floats is checked in one pass."""
    if set(map(type, values)) == {float} and all(map(math.isfinite, values)):
        return tuple(values)
    return tuple(_real(value, f"{name}[{k}]") for k, value in enumerate(values))


def parse_cost(doc: Any) -> CostSeries:
    if not isinstance(doc, dict):
        raise ConfigError("cost must be an object with a terms list")
    terms = doc.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ConfigError("cost.terms must be a nonempty list")
    pairs = []
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or "lambda" not in term or "exponent" not in term:
            raise ConfigError(f"cost.terms[{k}] needs lambda and exponent")
        pairs.append(
            (_real(term["lambda"], f"cost.terms[{k}].lambda"),
             _real(term["exponent"], f"cost.terms[{k}].exponent"))
        )
    auto = doc.get("auto_normalize", False)
    if not isinstance(auto, bool):
        raise ConfigError("cost.auto_normalize must be a boolean")
    try:
        return build_cost_series(pairs, auto_normalize=auto)
    except ChainlifeError as exc:
        raise ConfigError(f"invalid cost series: {exc}") from exc


def parse_network(doc: Any) -> PerturbedNetwork:
    """Chain from a config document; without shifts it is the regular chain."""
    if not isinstance(doc, dict):
        raise ConfigError("network config must be an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n must be a positive integer")
    volumes = doc.get("volumes")
    if not isinstance(volumes, list) or len(volumes) != n:
        raise ConfigError(f"volumes must be a list of {n} numbers")
    q = _reals(volumes, "volumes")
    series = parse_cost(doc.get("cost"))
    shifts = doc.get("shifts")
    if shifts is None:
        d = (0.0,) * n
    elif not isinstance(shifts, list) or len(shifts) != n:
        raise ConfigError(f"shifts must be a list of {n} numbers")
    else:
        d = _reals(shifts, "shifts")
    try:
        return PerturbedNetwork(n, d, q, series)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_json(path: str) -> Any:
    """The JSON document in a config file; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too long an int
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_network(path: str) -> PerturbedNetwork:
    return parse_network(read_json(path))


# ---------------------------------------------------------------------------
# serialization

def format_real(value: float, digits: int = JSON_DIGITS) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("documents only carry finite reals")
    return format(value, f".{digits}g")


def _json_real(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("documents only carry finite reals")
    return format(value, _JSON_REAL)


# texts of the scalar types, looked up by exact type; subclasses such as
# numpy.float64 fall through to the isinstance chain of _text
_SCALAR_TEXT = {
    float: _json_real,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    str: _quote,
    type(None): lambda value: "null",
}


def _float_run(items: Sequence[Any], inner: str) -> str | None:
    """JSON texts of a list's items joined by ",\n" + inner, in one format call.

    None unless every item is an exact float; a non-finite one raises
    ValueError, as on the value-by-value path.
    """
    if set(map(type, items)) != {float}:
        return None
    if not all(map(math.isfinite, items)):
        raise ValueError("documents only carry finite reals")
    return (",\n" + inner).join(["%.17g"] * len(items)) % tuple(items)


def _text(value: Any, pad: str) -> str:
    """JSON text of a value whose opening line is indented by pad."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, item in value.items():
            scalar = _SCALAR_TEXT.get(type(item))
            body = scalar(item) if scalar is not None else _text(item, inner)
            items.append(f"{inner}{_quote(str(key))}: {body}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        body = _float_run(value, inner)
        if body is None:
            body = (",\n" + inner).join([_text(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, FlowMatrix):
        cells = _flow_cells(value)
        if not cells:
            return "[]"
        inner, field = pad + "  ", pad + "    "
        row = f'{{\n{field}"from": %d,\n{field}"to": %d,\n{field}"amount": %.17g\n{inner}}}'
        body = (",\n" + inner).join([row] * (len(cells) // 3)) % cells
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_dumps(doc: Any) -> str:
    """Deterministic JSON text with fixed-precision reals and a trailing newline."""
    return _text(doc, "") + "\n"


def csv_text(header: str, rows: Sequence[Sequence[Any]]) -> str:
    """Comma-separated text; reals carry 12 significant digits."""
    return "\n".join([header, *map(_csv_line, rows)]) + "\n"


def _csv_line(row: Sequence[Any]) -> str:
    cells = []
    for cell in row:
        if isinstance(cell, bool):
            cells.append("true" if cell else "false")
        elif isinstance(cell, float):
            cells.append(format_real(cell, CSV_DIGITS))
        else:
            cells.append(str(cell))
    return ",".join(cells)


def _flow_cells(flow: FlowMatrix) -> tuple:
    """Sender, receiver and amount of each entry of a flow, row after row.

    A non-finite amount raises ValueError, as on the value-by-value path.
    """
    senders, receivers, amounts = flow.columns()
    if not all(map(math.isfinite, amounts)):
        raise ValueError("documents only carry finite reals")
    cells = [0] * (3 * len(amounts))
    cells[0::3], cells[1::3], cells[2::3] = senders, receivers, amounts
    return tuple(cells)


def solution_document(sol: EqualEnergySolution) -> dict:
    """The solution as json_dumps writes it; ``"flows"`` is the FlowMatrix itself,
    written as a list of {"from", "to", "amount"} objects in items() order."""
    return {
        "flows": sol.flow,
        "node_energies": [float(e) for e in sol.node_energies],
        "common_energy": float(sol.common_energy),
    }


def solution_csv(sol: EqualEnergySolution) -> str:
    cells = _flow_cells(sol.flow)
    return "from,to,amount" + ("\n%d,%d,%.12g" * (len(cells) // 3)) % cells + "\n"


def stability_d_document(
    rows: Sequence[tuple[int, tuple[float, float], StabilityInterval]],
    series: CostSeries,
) -> list[dict]:
    return [
        {
            "node": node,
            "envelope": [envelope[0], envelope[1]],
            "numeric": [numeric.lo, numeric.hi],
            "series": series_to_terms(series),
        }
        for node, envelope, numeric in rows
    ]


def stability_d_csv(
    rows: Sequence[tuple[int, tuple[float, float], StabilityInterval]]
) -> str:
    flat = [
        (node, envelope[0], envelope[1], numeric.lo, numeric.hi)
        for node, envelope, numeric in rows
    ]
    return csv_text("node,env_lo,env_hi,num_lo,num_hi", flat)


def _or_null(value: float | None) -> float | None:
    return None if value is None or math.isnan(value) else value


def _csv_limit(value: float | None, unbounded: str) -> float | str:
    if value is None:
        return unbounded
    return "" if math.isnan(value) else value


def stability_q_document(
    rows: Sequence[tuple[int, float | None, float | None]],
    constraints_ok: bool,
    unit_region: bool | None,
) -> dict:
    """Rows of (node, q_min, q_max) as in stability_q_csv; None and NaN are both null."""
    return {
        "nodes": [
            {"node": node, "q_min": _or_null(lo), "q_max": _or_null(hi)} for node, lo, hi in rows
        ],
        "q_constraints_ok": constraints_ok,
        "unit_region": unit_region,
    }


def stability_q_csv(rows: Sequence[tuple[int, float | None, float | None]]) -> str:
    """Rows of (node, q_min, q_max): None is a bound that does not apply, written
    -inf or inf, and NaN a limit that is not finite, written as an empty field."""
    flat = [(node, _csv_limit(lo, "-inf"), _csv_limit(hi, "inf")) for node, lo, hi in rows]
    return csv_text("node,q_min,q_max", flat)


def sweep_document(rows: Sequence[tuple[float, float | None, float]]) -> list[dict]:
    return [
        {
            "param": value,
            "common_energy": energy,
            "outside": energy is None,
            "min_flow": min_flow,
        }
        for value, energy, min_flow in rows
    ]


def sweep_csv(rows: Sequence[tuple[float, float | None, float]]) -> str:
    flat = [
        (value, "outside" if energy is None else energy, min_flow)
        for value, energy, min_flow in rows
    ]
    return csv_text("param,common_energy,min_flow", flat)


def verify_document(rows: Sequence[dict], tol: float) -> dict:
    gaps = [row["gap"] for row in rows if row["gap"] is not None]
    return {
        "tolerance": tol,
        "instances": list(rows),
        "max_gap": max(gaps) if gaps else 0.0,
        "all_optimal": all(row["status"] == "optimal" for row in rows),
    }


def verify_csv(rows: Sequence[dict]) -> str:
    flat = []
    for row in rows:
        series = ";".join(
            f"{term['lambda']:.12g}*s^{term['exponent']:.12g}" for term in row["series"]
        )
        flat.append(
            (
                row["n"],
                series,
                "" if row["closed_form"] is None else format_real(row["closed_form"], CSV_DIGITS),
                format_real(row["lp"], CSV_DIGITS),
                "" if row["gap"] is None else format_real(row["gap"], CSV_DIGITS),
                row["status"],
            )
        )
    return csv_text("n,series,closed_form,lp,gap,status", flat)
