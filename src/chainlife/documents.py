"""Configuration parsing and result-document serialization.

JSON output formats reals with 17 significant digits (exact float round
trip); CSV output uses 12.  Both writers are deterministic: same inputs,
same bytes.  Apart from the reals, a JSON document reads as the standard
library's ``json.dumps(doc, indent=2)`` plus a newline, and tuples are
lists.  The serializer builds each container's text from its children's,
and picks a scalar's text by its exact type; subclasses such as
``numpy.float64`` take the isinstance checks instead.

A run of same-shaped values is written with one ``%`` format over a
repeated row template instead of one value at a time: a JSON list of
exact floats or of exact ints, a JSON list of dicts that share one
non-empty key order and keep one exact float or int type per key (the
flows of a solution), and CSV rows whose cells keep one exact float or
int type per column.  ``"%.17g" % x`` and ``format(x, ".17g")`` run the
same float formatter, as do ``"%d" % k`` and ``str(k)`` for an exact int,
so the bytes are those of the value-by-value path.  Where only the last
item or row breaks the shape, as the last node's row of a stability-q
document does, the others are written as a run and it value by value.
Every other list or row set (bools, None, strings, subclasses, nested
containers, empty dicts, mixed types) and every run shorter than
``_RUN_MIN`` takes that path.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Sequence

from .cost import CostSeries, build_cost_series, series_to_terms
from .errors import ChainlifeError, ConfigError
from .perturbed import EqualEnergySolution, PerturbedNetwork, StabilityInterval

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


# formats of the exact types that a run written in one format call may
# hold; a run of fewer than _RUN_MIN values or rows is written value by
# value, which is faster there
_JSON_FORMAT = {float: "%.17g", int: "%d"}
_CSV_FORMAT = {float: "%.12g", int: "%d"}
_RUN_MIN = 8


def _column_formats(cells: Sequence[Any], width: int, formats: dict) -> list[str] | None:
    """Formats of the columns of row-major cells, width to a row.

    None unless every column holds one exact type that formats names; a
    non-finite real raises ValueError, as on the value-by-value path.
    """
    found = []
    for column in range(width):
        kinds = set(map(type, cells[column::width]))
        if len(kinds) != 1 or (kind := kinds.pop()) not in formats:
            return None
        found.append(formats[kind])
    real = formats[float]
    if real not in found:
        return found
    reals = cells if found == [real] * width else [
        cell for column, form in enumerate(found) if form == real for cell in cells[column::width]
    ]
    if not all(map(math.isfinite, reals)):
        raise ValueError("documents only carry finite reals")
    return found


def _run_text(items: Sequence[Any], inner: str) -> str | None:
    """JSON texts of a list's items joined by ",\n" + inner, the run in one format call.

    The run is the whole list, or all items but the last when only the last
    breaks its shape; None if neither is a run (see _same_shape_text).
    """
    body = _same_shape_text(items, inner)
    if body is None and len(items) > _RUN_MIN:
        body = _same_shape_text(items[:-1], inner)
        if body is not None:
            body += ",\n" + inner + _text(items[-1], inner)
    return body


def _same_shape_text(items: Sequence[Any], inner: str) -> str | None:
    """JSON texts of a list's items joined by ",\n" + inner, in one format call.

    None unless the items are exact floats, exact ints, or dicts of one
    non-empty order of str keys that keep one exact float or int type per
    key.  The first and last items are looked at before the whole run.
    """
    first, last = items[0], items[-1]
    if type(first) is not dict:
        if type(first) not in _JSON_FORMAT or type(last) is not type(first):
            return None
        formats = _column_formats(items, 1, _JSON_FORMAT)
        if formats is None:
            return None
        return (",\n" + inner).join(formats * len(items)) % tuple(items)
    keys = tuple(first)
    if (
        type(last) is not dict
        or not _JSON_FORMAT.keys() >= {*map(type, first.values()), *map(type, last.values())}
        or set(map(type, keys)) != {str}  # also rejects {}
        or set(map(type, items)) != {dict}
        or set(map(tuple, items)) != {keys}
    ):
        return None
    cells = [cell for item in items for cell in item.values()]
    formats = _column_formats(cells, len(keys), _JSON_FORMAT)
    if formats is None:
        return None
    field = inner + "  "
    row = "{\n" + ",\n".join(
        f"{field}{_quote(key).replace('%', '%%')}: {form}" for key, form in zip(keys, formats)
    ) + "\n" + inner + "}"
    return (",\n" + inner).join([row] * len(items)) % tuple(cells)


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
        body = _run_text(value, inner) if len(value) >= _RUN_MIN else None
        if body is None:
            body = (",\n" + inner).join([_text(item, inner) for item in value])
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
    body = _csv_run_text(rows) if len(rows) >= _RUN_MIN else None
    if body is not None:
        return header + "\n" + body + "\n"
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


def _csv_run_text(rows: Sequence[Sequence[Any]]) -> str | None:
    """CSV lines of the rows, the run in one format call.

    The run is all rows, or all but the last when only the last breaks its
    shape; None if neither is a run (see _same_shape_csv).
    """
    body = _same_shape_csv(rows)
    if body is None and len(rows) > _RUN_MIN:
        body = _same_shape_csv(rows[:-1])
        if body is not None:
            body += "\n" + _csv_line(rows[-1])
    return body


def _same_shape_csv(rows: Sequence[Sequence[Any]]) -> str | None:
    """CSV lines of the rows in one format call; None unless every row has the
    first row's length and each column holds one exact float or int type."""
    first, last = rows[0], rows[-1]
    width = len(first)
    if (
        not width
        or not _CSV_FORMAT.keys() >= {*map(type, first), *map(type, last)}
        or set(map(len, rows)) != {width}
    ):
        return None
    cells = [cell for row in rows for cell in row]
    formats = _column_formats(cells, width, _CSV_FORMAT)
    if formats is None:
        return None
    return "\n".join([",".join(formats)] * len(rows)) % tuple(cells)


def solution_document(sol: EqualEnergySolution) -> dict:
    return {
        "flows": [
            {"from": i, "to": j, "amount": value} for (i, j), value in sol.flow.items()
        ],
        "node_energies": [float(e) for e in sol.node_energies],
        "common_energy": float(sol.common_energy),
    }


def solution_csv(sol: EqualEnergySolution) -> str:
    rows = [(i, j, value) for (i, j), value in sol.flow.items()]
    return csv_text("from,to,amount", rows)


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
