"""Equal-energy flow splits of a sensor chain, their stability limits, and
LP proofs that they are optimal.

Exit codes: 0 success, 1 bad configuration or arguments, 2 volumes or
shifts outside the feasible region (a routing flow went negative), 3
verification failure or numerical breakdown.  verify also exits 3, with
no error line, when any row is outside_region: it exits 0 only when
every row is certified optimal.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import stat
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from . import documents as docs
from .errors import (
    ChainlifeError,
    ConfigError,
    NegativeFlow,
)
from .cost import CostSeries, series_to_terms, single_exponent_series, transmission_cost
from .oracle import DEFAULT_VERIFY_TOL, LpInstance, certifier, formulate, solve as lp_solve
from .perturbed import (
    PerturbedNetwork,
    numeric_d_intervals,
    solve_equal_energy,
    stability_bounds_d,
    sweep,
)
from .regular import (
    RegularNetwork,
    check_q_constraints,
    flow_closed_form,
    q_i_max,
    q_n_min,
    stability_region_Q_check,
    volume_limits,
)
# unused here: bench/spans.py traces these three by their names in this module
from .perturbed import numeric_d_interval  # noqa: F401
from .regular import node_energy_closed_form, raw_flows  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

_PARAM_RE = re.compile(r"^([Qd])(\d+)$")
_MAX_GRID_STEPS = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser as it was, so one serves every call
    parser = _Parser(prog="chainlife", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--input", help="network or suite config (JSON file)")
        cmd.add_argument("--output", help="write result here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        return cmd

    add("solve-regular", _cmd_solve, "equal-energy flows on an evenly spaced chain")
    add("solve-perturbed", _cmd_solve, "equal-energy flows with node position shifts")

    q_cmd = add("stability-q", _cmd_stability_q, "admissible volume range per node")
    q_cmd.add_argument("--nodes", default="all", help="comma list of node indices, or 'all'")

    d_cmd = add("stability-d", _cmd_stability_d, "admissible single-node shift intervals")
    d_cmd.add_argument("--nodes", default="all", help="comma list of node indices, or 'all'")

    v_cmd = add(
        "verify", _cmd_verify, "prove closed-form flows optimal with an LP dual certificate"
    )
    v_cmd.add_argument("--seed", type=int, default=0, help="seed for randomized volume draws")

    s_cmd = add("sweep", _cmd_sweep, "scan one volume or shift over a grid")
    s_cmd.add_argument("--param", required=True, help="parameter name, e.g. Q2 or d1")
    s_cmd.add_argument("--grid", required=True, help="LO:HI:STEP, inclusive of HI")
    return parser


def _write(args, parts: Iterable[str]) -> None:
    """Write a document's parts to --output, or to stdout, one part at a time.

    A document that fails while it streams leaves no output file: the file
    is closed and removed, unless it is not a regular file (a device such as
    /dev/null, or a link), and the error raised again, an OSError as a
    ConfigError.  A file that cannot be opened is a ConfigError too.
    """
    if not args.output:
        sys.stdout.writelines(parts)
        return
    try:
        handle = open(args.output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _cannot_write(args.output, exc) from None
    try:
        with handle:
            handle.writelines(parts)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(args.output).st_mode):
                os.remove(args.output)
        if isinstance(exc, OSError):
            raise _cannot_write(args.output, exc) from None
        raise


def _cannot_write(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _require_input(args) -> str:
    if not args.input:
        raise ConfigError(f"{args.command} requires --input")
    return args.input


def _require_unshifted(net: PerturbedNetwork) -> PerturbedNetwork:
    if any(net.shifts):
        raise ConfigError("this command expects an unshifted chain; got nonzero shifts")
    return net


def _parse_nodes(spec: str, n: int) -> list[int]:
    if spec == "all":
        return list(range(1, n + 1))
    try:
        nodes = [int(piece) for piece in spec.split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --nodes value {spec!r}") from exc
    if not nodes:
        raise ConfigError("--nodes selected nothing")
    for i in nodes:
        if not 1 <= i <= n:
            raise ConfigError(f"node {i} outside 1..{n}")
    return nodes


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid must be LO:HI:STEP")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad --grid value {spec!r}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError(f"--grid needs finite LO, HI and STEP, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ConfigError("--grid needs STEP > 0 and HI >= LO")
    steps = (hi - lo) / step
    if steps > _MAX_GRID_STEPS:
        raise ConfigError(f"--grid {spec!r} has more than {_MAX_GRID_STEPS} steps")
    values = []
    k = 0
    eps = step * 1e-9
    while k <= steps + 1:  # bounds the points where STEP is below the float spacing at LO
        value = lo + k * step
        if value > hi + eps:
            break
        values.append(min(value, hi))
        k += 1
    return values


def _out_of_region_message(net: PerturbedNetwork, exc: NegativeFlow) -> str:
    """Name the violated flow, the volume bound crossed where it is finite, and
    on a shifted chain the shift intervals."""
    j, target = exc.component
    lines = [str(exc)]
    if target == j - 1 and j >= 2:
        try:
            if j == net.n:
                lines.append(
                    f"volume Q_{j} = {net.volumes[j - 1]:.6g} is below the minimum "
                    f"{q_n_min(net):.9g} for this chain (Q_{j}^min)"
                )
            else:
                lines.append(
                    f"volume Q_{j - 1} = {net.volumes[j - 2]:.6g} exceeds the maximum "
                    f"{q_i_max(net, j - 1):.9g} for this chain (Q_{j - 1}^max)"
                )
        except ChainlifeError:
            pass
    if any(net.shifts):
        lines.append(
            "the configured shifts leave the stability region; see stability-d "
            "for admissible single-node intervals"
        )
    return "; ".join(lines)


def _cmd_solve(args) -> int:
    net = docs.load_network(_require_input(args))
    if args.command == "solve-regular":
        _require_unshifted(net)
    try:
        sol = solve_equal_energy(net)
    except NegativeFlow as exc:
        print(f"error: {_out_of_region_message(net, exc)}", file=sys.stderr)
        return 2
    if args.format == "csv":
        _write(args, docs.solution_csv_parts(sol))
    else:
        _write(args, docs.json_parts(docs.solution_document(sol)))
    return 0


def _cmd_stability_q(args) -> int:
    net = _require_unshifted(docs.load_network(_require_input(args)))
    nodes = _parse_nodes(args.nodes, net.n)
    # a limit that is not finite goes to the documents as NaN (see stability_q_csv);
    # the limits and the q-constraint check read the chain's one costing and relay sums
    limits = [math.nan if limit is None else limit for limit in volume_limits(net)]
    rows = [
        (i, limits[i - 1], None) if i == net.n else (i, 0.0, limits[i - 1]) for i in nodes
    ]
    ok = check_q_constraints(net)
    unit_region = stability_region_Q_check(net) if net.n >= 3 else None
    if args.format == "csv":
        _write(args, docs.stability_q_csv_parts(rows))
    else:
        _write(args, docs.json_parts(docs.stability_q_document(rows, ok, unit_region)))
    return 0


def _cmd_stability_d(args) -> int:
    net = _require_unshifted(docs.load_network(_require_input(args)))
    if any(q != 1.0 for q in net.volumes):
        raise ConfigError("stability-d is defined for unit volumes")
    nodes = _parse_nodes(args.nodes, net.n)
    intervals = numeric_d_intervals(net, nodes)
    rows = [(i, stability_bounds_d(net.n, i), numeric) for i, numeric in zip(nodes, intervals)]
    if args.format == "csv":
        _write(args, docs.stability_d_csv_parts(rows))
    else:
        _write(args, docs.json_parts(docs.stability_d_document(rows, net.series)))
    return 0


# ---------------------------------------------------------------------------
# verify

_SUITE_DEFAULTS = {
    "n_values": [2, 3, 4, 5, 6, 7, 8],
    "exponents": [1.0, 1.5, 2.0, 3.0],
    "volumes": "unit",
    "random_q": 0,
}


def _load_suite(path: str | None) -> dict:
    if path is None:
        return dict(_SUITE_DEFAULTS)
    doc = docs.read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError("suite config must be an object")
    for key in doc:
        if key not in _SUITE_DEFAULTS:
            raise ConfigError(f"suite key {key!r} is not one of {', '.join(_SUITE_DEFAULTS)}")
    return {**_SUITE_DEFAULTS, **doc}


def _random_unit_region_volumes(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    # Q_i >= 1 with total under 1.5 n keeps the draw in the always-feasible box
    while True:
        q = 1.0 + rng.uniform(0.0, 0.5, size=n)
        if q.sum() < 1.5 * n - 1e-9:
            return tuple(float(v) for v in q)


def _suite_count(value, where: str) -> int:
    count = docs._real(value, where)
    if count < 0.0 or not count.is_integer():
        raise ConfigError(f"{where} must be a non-negative integer")
    return int(count)


def _suite_series(value, k: int, n: int) -> CostSeries:
    exponent = docs._real(value, f"suite exponents[{k}]")
    try:
        series = single_exponent_series(exponent)
        transmission_cost(series, 0.0, float(n))  # the longest hop of the chain
    except ChainlifeError as exc:
        raise ConfigError(f"invalid suite exponent: {exc}") from exc
    return series


def _suite_volumes(volumes, n: int) -> list[tuple[float, ...]]:
    if volumes == "unit":
        return [(1.0,) * n]
    if not isinstance(volumes, list):
        raise ConfigError("suite volumes must be 'unit' or a list of vectors")
    cases = []
    for k, vec in enumerate(volumes):
        if not isinstance(vec, list) or len(vec) != n:
            raise ConfigError(f"suite volume vectors must have length n={n}")
        q = docs._reals(vec, f"suite volumes[{k}]")
        if min(q) <= 0.0:
            raise ConfigError(f"suite volumes[{k}] must be positive")
        cases.append(q)
    return cases


def _verify_chain(n: int, series: CostSeries, cases: list[tuple[float, ...]]) -> list[dict]:
    """The verify rows of one chain, one per volume vector, in order.

    The chain is costed once, and its certificate built once from that
    costing, in O(n) memory per row block; each vector then pays its
    network, which shares the chain's costing (see
    PerturbedNetwork.with_volumes), its O(n) walk and its bound.  ``lp`` is
    the certified dual bound inside the volume region and the checked HiGHS
    optimum outside it.  HiGHS needs the O(n^2) LP matrix, which is built
    at the chain's first outside row, once; a chain with no outside row
    never builds it.
    """
    chain = RegularNetwork(n, cases[0], series)
    prove = matrix = None
    terms = series_to_terms(series)
    rows = []
    for q in cases:
        net = chain.with_volumes(q)
        head = {"n": n, "series": terms, "volumes": list(q)}
        try:
            sol = flow_closed_form(net)
        except NegativeFlow:
            # no equal-energy split to certify: report the checked HiGHS optimum
            if matrix is None:
                matrix = formulate(chain).costs
            lp = lp_solve(LpInstance(q, matrix)).value
            rows.append(
                {**head, "lp": lp, "closed_form": None, "gap": None, "status": "outside_region"}
            )
            continue
        if prove is None:
            prove = certifier(chain)
        cert = prove(q)
        gap = abs(sol.common_energy - cert.bound)
        optimal = cert.proves(sol.common_energy)
        if not optimal:
            cost = " + ".join(f"{lam:g}*s^{a:g}" for lam, a in series.terms)
            print(
                f"error: no optimality certificate for n={n}, cost {cost}: arc {cert.arc} "
                f"has dual slack {cert.slack:.6g}, |closed form - bound| = {gap:.6g}",
                file=sys.stderr,
            )
        rows.append({
            **head,
            "lp": cert.bound,
            "closed_form": sol.common_energy,
            "gap": gap,
            "status": "optimal" if optimal else "suboptimal",
        })
    return rows


def _cmd_verify(args) -> int:
    suite = _load_suite(args.input)
    n_values, exponents = suite["n_values"], suite["exponents"]
    if not isinstance(n_values, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_values
    ):
        raise ConfigError("suite n_values must be positive integers")
    if not isinstance(exponents, list):
        raise ConfigError("suite exponents must be a list of numbers")
    draws = _suite_count(suite["random_q"], "suite random_q")
    if draws and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative for random draws, got {args.seed}")
    import numpy as np

    # creating a generator imports numpy.random; a suite without draws skips it
    rng = np.random.default_rng(args.seed) if draws else None
    rows = []
    for n in n_values:
        for k, a in enumerate(exponents):
            series = _suite_series(a, k, n)
            cases = _suite_volumes(suite["volumes"], n)
            cases += [_random_unit_region_volumes(rng, n) for _ in range(draws)]
            if cases:
                try:
                    rows += _verify_chain(n, series, cases)
                except MemoryError:
                    message = f"the LP matrix of the n={n} chain does not fit in memory"
                    raise ChainlifeError(message) from None
    if args.format == "csv":
        _write(args, docs.verify_csv_parts(rows))
    else:
        _write(args, docs.json_parts(docs.verify_document(rows, DEFAULT_VERIFY_TOL)))
    return 0 if all(row["status"] == "optimal" for row in rows) else 3


# ---------------------------------------------------------------------------
# sweep

def _cmd_sweep(args) -> int:
    net = docs.load_network(_require_input(args))
    match = _PARAM_RE.match(args.param)
    if match is None:
        raise ConfigError(f"--param must look like Q2 or d1, got {args.param!r}")
    kind, index_text = match.groups()
    index = int(index_text)
    if not 1 <= index <= net.n:
        raise ConfigError(f"parameter index {index} outside 1..{net.n}")
    try:
        rows = sweep(net, kind, index, _parse_grid(args.grid))
    except ValueError as exc:  # a grid value outside the chain's domain
        raise ConfigError(str(exc)) from None
    if args.format == "csv":
        _write(args, docs.sweep_csv_parts(rows))
    else:
        _write(args, docs.json_parts(docs.sweep_document(rows)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NegativeFlow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainlifeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
