"""Configuration parsing and result-document serialization.

JSON output formats reals with 17 significant digits (exact float round
trip); CSV output uses 12.  Both writers are deterministic: same inputs,
same bytes.  Apart from the reals, a JSON document reads as the standard
library's ``json.dumps(doc, indent=2)`` plus a newline, and tuples are
lists.  A scalar's text is picked by its exact type; subclasses such as
``numpy.float64`` take the isinstance checks instead.

Every writer yields its document in parts, and the CLI writes the parts
to the output as they come, so no command holds its whole document.
json_parts walks the document in order, a container's opening, its
children and its closing, and collects their texts; it yields what it
has collected before the first block of a solution's flows, after every
BLOCK_ROWS items of a list, and at the end, so a small document is one
part.  csv_parts yields the header line and then blocks of BLOCK_ROWS
lines.  json_dumps, csv_text and the ``*_csv`` functions join the same
parts into one string.  With cost 0.4 s^1.5 + 0.6 s^2.5 and volumes in
[1, 1.5), ``solve-regular`` through cli.main peaked at 9.95 MB traced at
n = 10^4 and 100.6 MB at n = 10^5 in JSON (5.42 and 55.1 MB in CSV) when
each document was one string, built again at each nesting level; written
in parts it peaks at 4.24 and 42.4 MB in either format, the peak of
loading and solving the chain alone.

Two kinds of value are written with one ``%`` format, because they are
the ones the benchmark's workloads write at length.  A solution's flows
take the column path: solution_document puts the solution's FlowMatrix
itself under ``"flows"``, and the JSON writer and solution_csv_parts
write its senders, receivers and amounts straight from the matrix's
columns over a repeated row template, a ``{"from", "to", "amount"}``
object in JSON and ``from,to,amount`` in CSV, in blocks of BLOCK_ROWS
rows, one ``%`` format over slices of the three columns per block.  No
per-flow dict or row is built and no shape is checked: a FlowMatrix holds
int indices and float amounts by construction.  And a JSON list of exact
floats (a solution's node energies, verify's volumes) is written whole,
brackets included, with one ``"%.17g"`` per item, which runs the same
float formatter as ``format(x, ".17g")``.  Both check that all their
reals are finite before they write any of them.  Every other list and
every CSV row is written value by value.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Collection, Iterator, Sequence

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


def _known_keys(doc: dict, keys: Collection[str], where: str) -> None:
    """Refuse a key of ``doc`` outside ``keys``, which no pass would read."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{where} key {key!r} is not one of {', '.join(keys)}")


def parse_cost(doc: Any) -> CostSeries:
    if not isinstance(doc, dict):
        raise ConfigError("cost must be an object with a terms list")
    _known_keys(doc, ("terms", "auto_normalize"), "cost")
    terms = doc.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ConfigError("cost.terms must be a nonempty list")
    pairs = []
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or "lambda" not in term or "exponent" not in term:
            raise ConfigError(f"cost.terms[{k}] needs lambda and exponent")
        _known_keys(term, ("lambda", "exponent"), f"cost.terms[{k}]")
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
    _known_keys(doc, ("n", "volumes", "cost", "shifts"), "network")
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
# numpy.float64 fall through to the isinstance chain of _scalar
_SCALAR_TEXT = {
    float: _json_real,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    str: _quote,
    type(None): lambda value: "null",
}

# flows, CSV lines or JSON list items per part: a block of flows is about
# 90 KB of JSON or 22 KB of CSV, far less than a large solution's document
BLOCK_ROWS = 1024


def _scalar(value: Any) -> str:
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _float_run(items: Sequence[Any], pad: str) -> str | None:
    """JSON text of a nonempty list whose opening line is indented by pad, in
    one format call, brackets included.

    None unless every item is an exact float; a non-finite one raises
    ValueError, as on the value-by-value path.
    """
    if set(map(type, items)) != {float}:
        return None
    if not all(map(math.isfinite, items)):
        raise ValueError("documents only carry finite reals")
    inner = pad + "  "
    body = (",\n" + inner).join(["%.17g"] * len(items))
    return f"[\n{inner}{body}\n{pad}]" % tuple(items)


def _parts(value: Any, pad: str, out: list[str]) -> Iterator[str]:
    """Append the JSON text of a value whose opening line is indented by pad
    to out; before a flow's first block and after every BLOCK_ROWS items of
    a list, yield out's text as a part and clear out.

    So a document of scalars and small containers is one part, and no part
    holds more than a block of list items (a float list is one item).
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{\n" + inner, ",\n" + inner
        for key, item in value.items():
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                out.append(f"{sep}{_quote(str(key))}: {scalar(item)}")
            else:
                out.append(f"{sep}{_quote(str(key))}: ")
                yield from _parts(item, inner, out)
            sep = comma
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        run = _float_run(value, pad)
        if run is not None:
            out.append(run)
            return
        inner = pad + "  "
        sep, comma = "[\n" + inner, ",\n" + inner
        for k, item in enumerate(value, 1):
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                out.append(sep + scalar(item))
            else:
                out.append(sep)
                yield from _parts(item, inner, out)
            if not k % BLOCK_ROWS:
                yield _drain(out)
            sep = comma
        out.append("\n" + pad + "]")
    elif isinstance(value, FlowMatrix):
        if not value.columns()[0]:
            out.append("[]")
            return
        inner, field = pad + "  ", pad + "    "
        row = f'{{\n{field}"from": %d,\n{field}"to": %d,\n{field}"amount": %.17g\n{inner}}}'
        out.append("[")
        yield _drain(out)
        yield from _flow_blocks(value, "\n" + inner + row, ",\n" + inner + row)
        out.append("\n" + pad + "]")
    else:
        out.append(_scalar(value))


def _drain(out: list[str]) -> str:
    text = "".join(out)
    out.clear()
    return text


def json_parts(doc: Any) -> Iterator[str]:
    """json_dumps' text in parts."""
    out: list[str] = []
    yield from _parts(doc, "", out)
    out.append("\n")
    yield _drain(out)


def json_dumps(doc: Any) -> str:
    """Deterministic JSON text with fixed-precision reals and a trailing newline."""
    return "".join(json_parts(doc))


def csv_parts(header: str, rows: Sequence[Sequence[Any]]) -> Iterator[str]:
    """csv_text's text in parts: the header line, then blocks of BLOCK_ROWS lines."""
    yield header + "\n"
    for lo in range(0, len(rows), BLOCK_ROWS):
        yield "\n".join([*map(_csv_line, rows[lo:lo + BLOCK_ROWS]), ""])


def csv_text(header: str, rows: Sequence[Sequence[Any]]) -> str:
    """Comma-separated text; reals carry 12 significant digits."""
    return "".join(csv_parts(header, rows))


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


def _flow_blocks(flow: FlowMatrix, first: str, row: str) -> Iterator[str]:
    """A flow's entries in blocks of BLOCK_ROWS, each one % format over slices
    of the three columns: the first entry written by the template first, each
    later one by row, both over (sender, receiver, amount).

    A non-finite amount raises ValueError before the first block, as on the
    value-by-value path.
    """
    senders, receivers, amounts = flow.columns()
    if not all(map(math.isfinite, amounts)):
        raise ValueError("documents only carry finite reals")
    size = len(amounts)
    for lo in range(0, size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, size)
        cells = [0] * (3 * (hi - lo))
        cells[0::3], cells[1::3], cells[2::3] = senders[lo:hi], receivers[lo:hi], amounts[lo:hi]
        yield ((row if lo else first) + row * (hi - lo - 1)) % tuple(cells)


def solution_document(sol: EqualEnergySolution) -> dict:
    """The solution as json_dumps writes it; ``"flows"`` is the FlowMatrix itself,
    written as a list of {"from", "to", "amount"} objects in items() order."""
    return {
        "flows": sol.flow,
        "node_energies": [float(e) for e in sol.node_energies],
        "common_energy": float(sol.common_energy),
    }


def solution_csv_parts(sol: EqualEnergySolution) -> Iterator[str]:
    yield "from,to,amount\n"
    yield from _flow_blocks(sol.flow, "%d,%d,%.12g\n", "%d,%d,%.12g\n")


def solution_csv(sol: EqualEnergySolution) -> str:
    return "".join(solution_csv_parts(sol))


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


def stability_d_csv_parts(
    rows: Sequence[tuple[int, tuple[float, float], StabilityInterval]]
) -> Iterator[str]:
    flat = [
        (node, envelope[0], envelope[1], numeric.lo, numeric.hi)
        for node, envelope, numeric in rows
    ]
    return csv_parts("node,env_lo,env_hi,num_lo,num_hi", flat)


def stability_d_csv(
    rows: Sequence[tuple[int, tuple[float, float], StabilityInterval]]
) -> str:
    return "".join(stability_d_csv_parts(rows))


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


def stability_q_csv_parts(
    rows: Sequence[tuple[int, float | None, float | None]]
) -> Iterator[str]:
    """Rows of (node, q_min, q_max): None is a bound that does not apply, written
    -inf or inf, and NaN a limit that is not finite, written as an empty field."""
    flat = [(node, _csv_limit(lo, "-inf"), _csv_limit(hi, "inf")) for node, lo, hi in rows]
    return csv_parts("node,q_min,q_max", flat)


def stability_q_csv(rows: Sequence[tuple[int, float | None, float | None]]) -> str:
    return "".join(stability_q_csv_parts(rows))


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


def sweep_csv_parts(rows: Sequence[tuple[float, float | None, float]]) -> Iterator[str]:
    flat = [
        (value, "outside" if energy is None else energy, min_flow)
        for value, energy, min_flow in rows
    ]
    return csv_parts("param,common_energy,min_flow", flat)


def sweep_csv(rows: Sequence[tuple[float, float | None, float]]) -> str:
    return "".join(sweep_csv_parts(rows))


def verify_document(rows: Sequence[dict], tol: float) -> dict:
    gaps = [row["gap"] for row in rows if row["gap"] is not None]
    return {
        "tolerance": tol,
        "instances": list(rows),
        "max_gap": max(gaps) if gaps else 0.0,
        "all_optimal": all(row["status"] == "optimal" for row in rows),
    }


def _verify_csv_row(row: dict) -> tuple:
    series = ";".join(
        f"{term['lambda']:.12g}*s^{term['exponent']:.12g}" for term in row["series"]
    )
    return (
        row["n"],
        series,
        "" if row["closed_form"] is None else format_real(row["closed_form"], CSV_DIGITS),
        format_real(row["lp"], CSV_DIGITS),
        "" if row["gap"] is None else format_real(row["gap"], CSV_DIGITS),
        row["status"],
    )


def verify_csv_parts(rows: Sequence[dict]) -> Iterator[str]:
    return csv_parts("n,series,closed_form,lp,gap,status", [*map(_verify_csv_row, rows)])


def verify_csv(rows: Sequence[dict]) -> str:
    return "".join(verify_csv_parts(rows))
