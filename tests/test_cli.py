"""Command-line behavior: exit codes, diagnostics, output stability."""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlife
from chainlife import (
    EqualEnergySolution,
    FlowMatrix,
    PerturbedNetwork,
    RegularNetwork,
    build_cost_series,
    cli,
    flow_closed_form,
    node_energy_closed_form,
    numeric_d_interval,
    oracle,
    perturbed,
    regular,
    single_exponent_series,
    solve_equal_energy,
    stability_bounds_d,
)
from chainlife import documents as docs
from chainlife.cli import main
from chainlife.errors import ChainlifeError, ConfigError, NegativeFlow
from chainlife.regular import raw_flows
from chainlife.validate import FLOW_ZERO_TOL
from chainlife.cost import CostSeries, series_to_terms
from chainlife.oracle import Certificate

from helpers import random_series, unit_region_volumes


@pytest.fixture()
def write_config(tmp_path):
    def _write(name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def quadratic_chain(n: int, volumes=None, shifts=None) -> dict:
    doc = {
        "n": n,
        "volumes": list(volumes) if volumes else [1.0] * n,
        "cost": {"terms": [{"lambda": 1.0, "exponent": 2.0}]},
    }
    if shifts:
        doc["shifts"] = list(shifts)
    return doc


def linear_chain(n: int) -> dict:
    return {
        "n": n,
        "volumes": [1.0] * n,
        "cost": {"terms": [{"lambda": 1.0, "exponent": 1.0}]},
    }


def test_solve_regular_json(write_config, capsys):
    path = write_config("net.json", quadratic_chain(2))
    assert main(["solve-regular", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["common_energy"] == 1.75
    assert {tuple((f["from"], f["to"])): f["amount"] for f in doc["flows"]} == {
        (1, 0): 1.75,
        (2, 0): 0.25,
        (2, 1): 0.75,
    }


def test_solve_regular_csv_output_file(write_config, tmp_path):
    path = write_config("net.json", quadratic_chain(2))
    out = tmp_path / "flows.csv"
    assert main(["solve-regular", "--input", path, "--format", "csv", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "from,to,amount"


def test_missing_input_is_config_error(capsys):
    assert main(["solve-regular"]) == 1
    assert "requires --input" in capsys.readouterr().err


def test_unknown_flag_is_config_error():
    assert main(["solve-regular", "--frobnicate"]) == 1


# files json.load rejects: bad syntax, then three that raise no JSONDecodeError
_MALFORMED_JSON = {
    "syntax.json": b"{]",
    "utf16.json": b"\xff\xfe{\x00}\x00",  # not UTF-8: UnicodeDecodeError
    "deep.json": b"[" * 100_000 + b"]" * 100_000,  # RecursionError
    "long-int.json": b'{"n": ' + b"1" * 4301 + b"}",  # past int's 4300-digit limit
}


def _write_malformed(tmp_path):
    for name, text in _MALFORMED_JSON.items():
        path = tmp_path / name
        path.write_bytes(text)
        yield path


def _assert_one_error_line(capsys, reason):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and reason in lines[0]


def test_malformed_config_file(tmp_path, capsys):
    for path in _write_malformed(tmp_path):
        assert main(["solve-regular", "--input", str(path)]) == 1
        _assert_one_error_line(capsys, "not valid JSON")


def test_out_of_region_volume_names_the_boundary(write_config, capsys):
    path = write_config("net.json", quadratic_chain(2, volumes=[1.0, 0.1]))
    assert main(["solve-regular", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "q[2,1]" in err
    assert "0.25" in err
    assert "Q_2" in err


def test_out_of_region_interior_volume(write_config, capsys):
    # Q_1 pushed past its maximum starves the hop into node 1
    path = write_config("net.json", quadratic_chain(3, volumes=[6.0, 1.0, 1.0]))
    assert main(["solve-regular", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "q[2,1]" in err
    assert "Q_1" in err and "exceeds the maximum 5.6666" in err


@pytest.mark.parametrize("command", ["solve-regular", "solve-perturbed"])
@pytest.mark.parametrize(
    "field, text",
    [
        ("lambda", "NaN"),
        ("volume", "Infinity"),
        ("volume", "-Infinity"),
        ("shift", "NaN"),
        pytest.param("volume", "1" + "0" * 400, id="volume-huge-integer"),
    ],
)
def test_non_finite_input_is_config_error(tmp_path, capsys, command, field, text):
    # json accepts NaN and Infinity literals; the document parser must not.
    # An exception escaping main would be the traceback a user sees.
    lam = text if field == "lambda" else "1.0"
    volume = text if field == "volume" else "1"
    shift = text if field == "shift" else "0"
    path = tmp_path / "net.json"
    path.write_text(
        f'{{"n": 3, "volumes": [{volume}, 1, 1], "shifts": [{shift}, 0, 0],'
        f' "cost": {{"terms": [{{"lambda": {lam}, "exponent": 2.0}}]}}}}'
    )
    assert main([command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0]


@pytest.mark.parametrize("command", ["solve-regular", "solve-perturbed"])
def test_cost_overflow_is_one_error_line(write_config, capsys, command):
    # 3**1000 is beyond the float range
    doc = quadratic_chain(4)
    doc["cost"]["terms"][0]["exponent"] = 1000.0
    assert main([command, "--input", write_config("net.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "float range" in lines[0]


@pytest.mark.parametrize("command", ["solve-regular", "stability-q", "sweep"])
def test_cost_coefficients_summing_past_the_float_range_are_one_error_line(
    write_config, capsys, command
):
    doc = quadratic_chain(3)
    doc["cost"] = {
        "terms": [{"lambda": 1e308, "exponent": 2.0}, {"lambda": 1e308, "exponent": 3.0}],
        "auto_normalize": True,
    }
    extra = ["--param", "Q1", "--grid", "1:2:1"] if command == "sweep" else []
    assert main([command, "--input", write_config("net.json", doc), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid cost series:")


def test_solve_perturbed_accepts_regular_config(write_config, capsys):
    path = write_config("net.json", quadratic_chain(2))
    assert main(["solve-perturbed", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["common_energy"] == pytest.approx(1.75, abs=1e-12)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_regular_and_perturbed_print_identical_bytes(write_config, capsys, fmt):
    path = write_config("net.json", quadratic_chain(4, volumes=[1.2, 1.0, 1.3, 1.1]))
    outputs = []
    for command in ("solve-regular", "solve-perturbed"):
        assert main([command, "--input", path, "--format", fmt]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_solve_perturbed_out_of_region(write_config, capsys):
    path = write_config("net.json", quadratic_chain(3, shifts=[0.9, 0.0, 0.0]))
    assert main(["solve-perturbed", "--input", path]) == 2
    assert "stability" in capsys.readouterr().err


def test_both_solve_commands_name_the_same_volume_bound(write_config, capsys):
    # the message depends on the chain, not on the subcommand
    path = write_config("net.json", quadratic_chain(3, volumes=[6.0, 1.0, 1.0]))
    errors = []
    for command in ("solve-regular", "solve-perturbed"):
        assert main([command, "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert "Q_1 = 6 exceeds the maximum 5.66666667" in errors[0]
    assert "shifts" not in errors[0]


def test_failed_walk_is_one_error_line(write_config, capsys, monkeypatch):
    # the walk's own SingularMatrix, without a dense condition estimate
    def dense(net):
        pytest.fail("the solve assembled the dense system")

    monkeypatch.setattr(perturbed, "assemble_system", dense)
    n = 1500
    path = write_config("net.json", quadratic_chain(n, shifts=[0.999999] + [0.0] * (n - 1)))
    assert main(["solve-perturbed", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "energy spread" in lines[0]


def test_one_parser_serves_every_call(write_config, capsys):
    # a call that fails parsing halfway must leave nothing behind for the
    # calls after it on the same parser
    path = write_config("net.json", linear_chain(3))
    calls = [
        ["stability-d", "--input", path],
        ["sweep", "--input", path, "--param", "d2", "--grid=-0.2:0.2:0.1", "--format", "csv"],
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        assert main(argv) == 0
        alone.append(capsys.readouterr().out)
    cli._build_parser.cache_clear()
    assert main(["stability-d", "--input", path, "--nodes", "2", "--format", "csv", "--bogus"]) == 1
    assert capsys.readouterr().out == ""
    together = []
    for argv in calls:
        assert main(argv) == 0
        together.append(capsys.readouterr().out)
    assert together == alone
    assert cli._build_parser.cache_info().misses == 1


def test_solve_regular_rejects_shifted_config(write_config, capsys):
    path = write_config("net.json", quadratic_chain(3, shifts=[0.1, 0.0, 0.0]))
    assert main(["solve-regular", "--input", path]) == 1


def test_stability_q_document(write_config, capsys):
    path = write_config("net.json", linear_chain(3))
    assert main(["stability-q", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {row["node"]: row for row in doc["nodes"]}
    assert rows[1]["q_max"] == pytest.approx(2.5)
    assert rows[3]["q_min"] == pytest.approx(0.5)
    assert rows[3]["q_max"] is None
    assert doc["q_constraints_ok"] is True
    assert doc["unit_region"] is True


def test_stability_q_volumes_summing_past_the_float_range_leave_the_unit_region(
    write_config, capsys
):
    path = write_config("net.json", quadratic_chain(3, volumes=[1e308, 1e308, 1.0]))
    assert main(["stability-q", "--input", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["unit_region"] is False


def steep_chain(volumes) -> dict:
    # cost s^20: every relay's slope in a volume is tiny next to its value
    return {
        "n": len(volumes),
        "volumes": list(volumes),
        "cost": {"terms": [{"lambda": 1.0, "exponent": 20.0}]},
    }


def test_stability_q_reports_every_limit_of_a_steep_chain(write_config, capsys):
    path = write_config("net.json", steep_chain([1.0] * 10))
    assert main(["stability-q", "--input", path, "--nodes", "all"]) == 0
    rows = json.loads(capsys.readouterr().out)["nodes"]
    assert [row["node"] for row in rows] == list(range(1, 11))
    assert all(row["q_max"] > 1.0 for row in rows[:-1])
    assert 0.0 < rows[-1]["q_min"] < 1.0
    assert main(["stability-q", "--input", path, "--nodes", "all", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "node,q_min,q_max"
    assert len(lines) == 11
    assert lines[4] == "4,0,5.56960163704e+14"
    assert lines[10].endswith(",inf")


def test_stability_q_reports_a_limit_that_is_not_finite_per_node(write_config, capsys):
    # Q_1^max of (1, 1e308, 1) lies past the float range; nodes 2 and 3 keep theirs
    path = write_config("net.json", quadratic_chain(3, volumes=[1.0, 1e308, 1.0]))
    assert main(["stability-q", "--input", path]) == 0
    rows = json.loads(capsys.readouterr().out)["nodes"]
    assert [row["node"] for row in rows] == [1, 2, 3]
    assert rows[0] == {"node": 1, "q_min": 0.0, "q_max": None}
    assert rows[1]["q_max"] == pytest.approx(8.25, rel=1e-14)
    assert rows[2]["q_min"] > 1e306 and rows[2]["q_max"] is None
    assert main(["stability-q", "--input", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["node,q_min,q_max", "1,0,", "2,0,8.25"]
    assert len(lines) == 4 and lines[3].endswith(",inf")


def test_out_of_region_volume_of_a_steep_chain_names_its_maximum(write_config, capsys):
    path = write_config("net.json", steep_chain([1.0, 1.0, 1.0, 1e15] + [1.0] * 6))
    assert main(["solve-regular", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flow q[5,4] = ")
    assert err.rstrip("\n").endswith(
        "; volume Q_4 = 1e+15 exceeds the maximum 5.56960164e+14 for this chain (Q_4^max)"
    )


def test_stability_d_csv_header(write_config, capsys):
    path = write_config("net.json", linear_chain(3))
    assert main(["stability-d", "--input", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "node,env_lo,env_hi,num_lo,num_hi"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == -1.0
    assert float(first[2]) == pytest.approx(0.244998, abs=1e-6)


def test_stability_d_subset_and_guards(write_config, capsys):
    path = write_config("net.json", linear_chain(3))
    assert main(["stability-d", "--input", path, "--nodes", "2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["node"] for row in doc] == [2, 3]
    assert main(["stability-d", "--input", path, "--nodes", "0"]) == 1
    nonunit = write_config("nonunit.json", quadratic_chain(3, volumes=[1.0, 2.0, 1.0]))
    assert main(["stability-d", "--input", nonunit]) == 1


def _counted_walks(monkeypatch, *names: str) -> dict[str, int]:
    """Calls of perturbed's ``names`` and of the backward walk, patched where they are looked up.

    The backward walk is the body of the cached property
    PerturbedNetwork.backward_sums, so the count is of its computations.
    """
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(perturbed, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(perturbed, name, counted)
    counts["backward_sums"] = 0
    backward = PerturbedNetwork.backward_sums.func

    def counted_backward(net):
        counts["backward_sums"] += 1
        return backward(net)

    walk = functools.cached_property(counted_backward)
    walk.__set_name__(PerturbedNetwork, "backward_sums")
    monkeypatch.setattr(PerturbedNetwork, "backward_sums", walk)
    return counts


@pytest.mark.parametrize("n", [10, 500])
def test_stability_q_costs_the_chain_once_for_all_limits(write_config, capsys, monkeypatch, n):
    # every node's limit and the q-constraint check read the chain's one
    # costing and one summation of each relay walk, whatever the node count;
    # a costing builds the chain's cost function once
    counts = _counted_walks(monkeypatch, "cost_function", "_costs", "_forward_sums")
    path = write_config("net.json", quadratic_chain(n))
    assert main(["stability-q", "--input", path, "--nodes", "all"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == n
    assert counts == {"cost_function": 1, "_costs": 1, "_forward_sums": 1, "backward_sums": 1}


@pytest.mark.parametrize("n", [10, 200])
def test_stability_d_shares_one_set_up(write_config, capsys, monkeypatch, n):
    # the chain is costed once for all nodes, summed once from each end and
    # walked once, at d = 0; the nodes' probes are O(1) and walk nothing
    path = write_config("net.json", quadratic_chain(n))
    for nodes, rows in (("all", n), (str(n // 2), 1)):
        counts = _counted_walks(monkeypatch, "_costs", "_forward_sums", "_equal_energy_flows")
        assert main(["stability-d", "--input", path, "--nodes", nodes]) == 0
        assert len(json.loads(capsys.readouterr().out)) == rows
        assert counts == {
            "_costs": 1, "_forward_sums": 1, "_equal_energy_flows": 1, "backward_sums": 1
        }, nodes


def test_solves_sweeps_and_verify_run_no_backward_walk(write_config, capsys, monkeypatch):
    # only the stability passes read the walk from the far end; a sweep sums
    # the outward walk once per grid point and a verify row once per vector
    regular = write_config("net.json", quadratic_chain(6))
    shifted = write_config("shifted.json", quadratic_chain(6, shifts=[0.0, 0.05, 0, 0, 0, 0]))
    suite = write_config("suite.json", {"n_values": [3, 5], "exponents": [2.0],
                                        "volumes": "unit", "random_q": 2})
    calls = [
        (["solve-regular", "--input", regular], 1),
        (["solve-perturbed", "--input", shifted], 1),
        (["sweep", "--input", shifted, "--param", "d2", "--grid", "0:0.2:0.05"], 5),
        (["sweep", "--input", regular, "--param", "Q6", "--grid", "0.5:2:0.5"], 4),
        (["verify", "--input", suite], 6),
    ]
    for argv, walks in calls:
        counts = _counted_walks(monkeypatch, "_forward_sums")
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert counts == {"_forward_sums": walks, "backward_sums": 0}, argv


def test_stability_d_all_nodes_print_the_one_node_rows(write_config, capsys):
    # the shared set-up must leave every node's interval as its own call
    # finds it, bytes included
    rng = np.random.default_rng(3030)
    for _ in range(30):
        n = int(rng.integers(1, 21))
        series = random_series(rng)
        path = write_config("net.json", {"n": n, "volumes": [1.0] * n,
                                         "cost": {"terms": series_to_terms(series)}})
        net = RegularNetwork(n, (1.0,) * n, series)
        rows = [(i, stability_bounds_d(n, i), numeric_d_interval(net, i))
                for i in range(1, n + 1)]
        expected = {"json": docs.json_dumps(docs.stability_d_document(rows, series)),
                    "csv": docs.stability_d_csv(rows)}
        for fmt, text in expected.items():
            assert main(["stability-d", "--input", path, "--format", fmt]) == 0
            assert capsys.readouterr().out == text, (n, fmt)


def test_stability_d_counts_a_probe_whose_cost_overflows_as_infeasible(write_config, capsys):
    # node 3's first outward probe, at d = -1 + 1e-6, costs a distance of
    # almost 4, and 4**600 lies past the float range
    path = write_config("net.json", {"n": 3, "volumes": [1.0] * 3,
                                     "cost": {"terms": [{"lambda": 1.0, "exponent": 600.0}]}})
    out = {}
    for fmt in ("json", "csv"):
        assert main(["stability-d", "--input", path, "--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    assert main(["stability-d", "--input", path, "--nodes", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == out["csv"].splitlines()[3:]
    assert main(["stability-d", "--input", path, "--nodes", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(out["json"])[2:]
    lo = json.loads(out["json"])[2]["numeric"][0]
    assert -1.0 < lo < 0.0
    # with node 3 shifted to 0.999 of that end the chain solves with every flow positive
    net = PerturbedNetwork(3, (0.0, 0.0, 0.999 * lo), (1.0,) * 3, single_exponent_series(600.0))
    assert solve_equal_energy(net).flow.min_entry() > 0.0


def test_verify_default_green(capsys):
    assert main(["verify", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,series,closed_form,lp,gap,status"
    assert all(line.endswith("optimal") for line in lines[1:])


def test_verify_flags_out_of_region_suite(write_config, capsys):
    path = write_config(
        "suite.json",
        {"n_values": [2], "exponents": [2.0], "volumes": [[1.0, 0.1]], "random_q": 0},
    )
    assert main(["verify", "--input", path]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_optimal"] is False
    assert doc["instances"][0]["status"] == "outside_region"


def test_verify_certifies_where_the_simplex_failed(write_config, capsys):
    # the dense simplex returned a wrong optimum at n = 15 and stalled at n = 16
    suite = write_config(
        "suite.json",
        {"n_values": [15, 16], "exponents": [3.0], "volumes": "unit", "random_q": 0},
    )
    assert main(["verify", "--input", suite]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["instances"]
    assert [row["status"] for row in rows] == ["optimal", "optimal"]
    for row in rows:
        assert row["lp"] == pytest.approx(row["closed_form"], rel=1e-14)


def test_verify_gap_is_relative_to_the_energy(write_config, capsys):
    # at volumes 1e9 the common energy is about 1.5e10, and the bound misses
    # it by a few ulps, 1.9e-6 and 3.8e-6 in absolute terms
    suite = write_config(
        "suite.json",
        {"n_values": [16], "exponents": [2.0, 3.0], "volumes": [[1e9] * 16], "random_q": 0},
    )
    assert main(["verify", "--input", suite]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["instances"]
    assert [row["status"] for row in rows] == ["optimal", "optimal"]
    assert all(0.0 < row["gap"] <= 1e-7 * row["closed_form"] for row in rows)


def test_verify_failed_certificate_names_the_arc(write_config, capsys, monkeypatch):
    # bypass series validation so the suite runs on a concave cost sqrt(s)
    monkeypatch.setattr(cli, "single_exponent_series", lambda a: CostSeries(((1.0, a),)))
    suite = write_config(
        "suite.json",
        {"n_values": [6], "exponents": [0.5], "volumes": "unit", "random_q": 0},
    )
    assert main(["verify", "--input", suite, "--format", "csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",suboptimal")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "arc (6, 3)" in lines[0] and "0.1293" in lines[0]


@pytest.mark.parametrize(
    "key, value",
    [
        ("random_q", "x"),
        ("random_q", -1),
        ("random_q", 1.5),
        ("exponents", ["x"]),
        ("exponents", [1e308]),
        ("volumes", [[1.0, float("nan"), 1.0]]),
        ("volumes", [[1.0, 0.0, 1.0]]),
        ("volumes", [[1.0, -2.0, 1.0]]),
        ("n_values", [True]),
    ],
    ids=["random_q-text", "random_q-negative", "random_q-fraction", "exponent-text",
         "exponent-overflow", "volume-nan", "volume-zero", "volume-negative", "n-bool"],
)
def test_verify_rejects_bad_suite_values(write_config, capsys, key, value):
    doc = {"n_values": [3], "exponents": [2.0], "volumes": "unit", "random_q": 0}
    doc[key] = value
    assert main(["verify", "--input", write_config("suite.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "suite" in lines[0]


@pytest.mark.parametrize("key", ["shifts", "n", "seed"])
def test_verify_rejects_unknown_suite_keys(write_config, capsys, key):
    # a key verify does not read is an error, not ignored: a "shifts" key
    # would otherwise verify the regular chain and exit 0
    doc = {"n_values": [3], "exponents": [2.0], "volumes": "unit", "random_q": 0,
           key: [0, 0.1, 0]}
    assert main(["verify", "--input", write_config("suite.json", doc)]) == 1
    _assert_one_error_line(capsys, f"suite key {key!r} is not one of")


@pytest.mark.parametrize(
    "where, key, edit",
    [
        ("network", "shift", lambda doc: doc.update(shift=[0, 0.3, 0])),
        ("network", "batteries", lambda doc: doc.update(batteries=[1, 2, 1])),
        ("cost", "offset", lambda doc: doc["cost"].update(offset=0.5)),
        ("cost.terms[0]", "weight", lambda doc: doc["cost"]["terms"][0].update(weight=2)),
    ],
    ids=["network-shift", "network-batteries", "cost-offset", "term-weight"],
)
@pytest.mark.parametrize("command", ["solve-regular", "stability-q"])
def test_network_config_rejects_unknown_keys(write_config, capsys, command, where, key, edit):
    # a key no pass reads is an error, not ignored: a misspelt "shift" would
    # otherwise solve the regular chain and exit 0
    doc = quadratic_chain(3)
    edit(doc)
    assert main([command, "--input", write_config("net.json", doc)]) == 1
    _assert_one_error_line(capsys, f"{where} key {key!r} is not one of")


def test_help_names_the_exit_codes_and_no_benchmark_figures(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse rewraps the description
    for code in ("0 success", "1 bad configuration", "2 volumes or shifts", "3 verification"):
        assert code in text
    assert "traced" not in text and "``" not in text


def test_verify_unreadable_or_malformed_suite_is_config_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"n_values": [3],')
    cases = [(tmp_path / "missing.json", "cannot read"), (broken, "not valid JSON")]
    cases += [(path, "not valid JSON") for path in _write_malformed(tmp_path)]
    for path, reason in cases:
        assert main(["verify", "--input", str(path)]) == 1
        _assert_one_error_line(capsys, reason)


def test_verify_without_draws_leaves_numpy_random_unloaded():
    # creating a generator imports numpy.random, about 5 MB of resident memory
    code = (
        "import contextlib, io, sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from chainlife.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify'])\n"
        "print(rc, eager, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    rc, eager, loaded = proc.stdout.split()
    assert rc == "0"
    if eager == "True":
        pytest.skip("this numpy imports numpy.random eagerly")
    assert loaded == "False"


@pytest.mark.parametrize("n, optimum", [(30, 26.8818923067), (40, 36.6245099111)])
def test_verify_outside_rows_report_the_lp_optimum(write_config, capsys, n, optimum):
    # the dense simplex stalled at n = 30 and printed 10.9229103216 at n = 40
    suite = write_config(
        "suite.json",
        {"n_values": [n], "exponents": [2.0], "volumes": [[1.0] * (n - 1) + [0.01]],
         "random_q": 0},
    )
    assert main(["verify", "--input", suite]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    [row] = json.loads(captured.out)["instances"]
    assert row["status"] == "outside_region"
    assert row["lp"] == pytest.approx(optimum, rel=1e-9)


def test_verify_outside_row_with_a_failed_dual_check_exits_3(write_config, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "check_dual", lambda inst, pi, mu: Certificate(0.0, 1.0, (2, 1)))
    suite = write_config(
        "suite.json",
        {"n_values": [2], "exponents": [2.0], "volumes": [[1.0, 0.1]], "random_q": 0},
    )
    assert main(["verify", "--input", suite]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "arc (2, 1)" in lines[0]


def _verify_under_3_gib(suite: str) -> subprocess.CompletedProcess:
    """verify run in a child that caps its address space at 3 GiB (or a lower
    hard limit) before chainlife is imported, so an allocation past the cap
    is refused at once and nothing that large is ever held."""
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from chainlife.cli import main\n"
        f"sys.exit(main(['verify', '--input', {suite!r}, '--format', 'csv']))\n"
    )
    env = dict(_child_env(), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_verify_reports_an_lp_matrix_that_cannot_be_allocated(write_config):
    # a last volume below its minimum (3.3e-5) leaves the region, so HiGHS
    # needs the LP matrix: at n = 30000, 6.7 GiB per dense n x n array
    pytest.importorskip("resource")
    n = 30000
    suite = write_config("suite.json", {"n_values": [n], "exponents": [2.0],
                                        "volumes": [[1.0] * (n - 1) + [1e-6]]})
    proc = _verify_under_3_gib(suite)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: the LP matrix of the n=30000 chain does not fit in memory"
    ]


def test_verify_certifies_a_chain_too_large_for_its_lp_matrix(write_config):
    # in-region rows are certified from the chain's costing, one block of
    # rows at a time, with no LP matrix
    pytest.importorskip("resource")
    suite = write_config("suite.json", {"n_values": [30000], "exponents": [2.0],
                                        "volumes": "unit"})
    proc = _verify_under_3_gib(suite)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[1].startswith("30000,") and lines[1].endswith(",optimal")


def test_verify_and_solve_leave_scipy_unloaded(write_config):
    # importing scipy.optimize after numpy takes about 0.6 s; only
    # outside-region rows need it
    path = write_config("net.json", quadratic_chain(3))
    code = (
        "import contextlib, io, sys\n"
        "from chainlife.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['verify']), main(['solve-regular', '--input', {path!r}])]\n"
        "print(*codes, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.stdout.split() == ["0", "0", "False"]


def test_only_verify_loads_numpy(write_config):
    # numpy is most of the start-up time of a short CLI call
    regular = write_config("net.json", quadratic_chain(4))
    shifted = write_config("shifted.json", quadratic_chain(4, shifts=[0.0, 0.05, 0.0, 0.0]))
    calls = [
        ["solve-regular", "--input", regular],
        ["solve-perturbed", "--input", shifted],
        ["stability-q", "--input", regular],
        ["stability-d", "--input", regular, "--nodes", "all"],
        ["sweep", "--input", shifted, "--param", "d2", "--grid", "0:0.2:0.1"],
        ["sweep", "--input", regular, "--param", "Q2", "--grid", "0.5:1:0.5"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from chainlife.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(args) for args in {calls!r}]\n"
        "    free = 'numpy' not in sys.modules\n"
        "    codes.append(main(['verify']))\n"
        "print(*codes, free, 'numpy' in sys.modules, 'numpy.random' in sys.modules,\n"
        "      any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    *codes, free, numpy_loaded, random_loaded, scipy_loaded = proc.stdout.split()
    assert codes == ["0"] * (len(calls) + 1), proc.stderr
    assert free == "True"
    assert numpy_loaded == "True"
    assert scipy_loaded == "False"
    # numpy 1.x imports numpy.random with numpy itself
    assert random_loaded == "False" or _numpy_imports_random_eagerly()


def _numpy_imports_random_eagerly() -> bool:
    code = "import sys, numpy\nprint('numpy.random' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    return proc.stdout.strip() == "True"


def test_verify_is_byte_stable(write_config, tmp_path):
    suite = write_config(
        "suite.json",
        {"n_values": [3], "exponents": [2.0], "volumes": "unit", "random_q": 4},
    )
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "--input", suite, "--seed", "11", "--output", str(first)]) == 0
    assert main(["verify", "--input", suite, "--seed", "11", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def _verify_row_by_row(n, series, vectors, draws, seed, fmt) -> tuple[int, str, list[str]]:
    """rc, stdout and stderr lines of verify built one volume vector at a time.

    Each vector gets its own network, LP matrix and certificate (or HiGHS
    solve): the reference for verify's per-chain sharing.
    """
    rng = np.random.default_rng(seed)
    tol = oracle.DEFAULT_VERIFY_TOL
    rows, err = [], []
    try:
        for one in series:
            for q in vectors + [cli._random_unit_region_volumes(rng, n) for _ in range(draws)]:
                net = RegularNetwork(n, q, one)
                inst = oracle.formulate(net)
                head = {"n": n, "series": series_to_terms(one), "volumes": list(q)}
                try:
                    sol = flow_closed_form(net)
                except NegativeFlow:
                    rows.append({**head, "lp": oracle.solve(inst).value, "closed_form": None,
                                 "gap": None, "status": "outside_region"})
                    continue
                cert = oracle.certify(inst)
                gap = abs(sol.common_energy - cert.bound)
                optimal = cert.proves(sol.common_energy)
                if not optimal:
                    cost = " + ".join(f"{lam:g}*s^{a:g}" for lam, a in one.terms)
                    err.append(
                        f"error: no optimality certificate for n={n}, cost {cost}: arc "
                        f"{cert.arc} has dual slack {cert.slack:.6g}, |closed form - bound| "
                        f"= {gap:.6g}"
                    )
                rows.append({**head, "lp": cert.bound, "closed_form": sol.common_energy,
                             "gap": gap, "status": "optimal" if optimal else "suboptimal"})
    except ChainlifeError as exc:
        return (2 if isinstance(exc, NegativeFlow) else 3), "", err + [f"error: {exc}"]
    if fmt == "csv":
        out = docs.verify_csv(rows)
    else:
        out = docs.json_dumps(docs.verify_document(rows, tol))
    return (0 if all(row["status"] == "optimal" for row in rows) else 3), out, err


# sqrt(s) and a flat cost bypass validation: the first certificate has a
# violated arc, the second no nonnegative multiplier (infinite slack)
_UNPROVABLE = (CostSeries(((1.0, 0.5),)), CostSeries(((1.0, 0.0),)))


@st.composite
def verify_suites(draw):
    """One chain length, its series and volume vectors (some outside U), draws and seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 30))
    series = [random_series(rng, max_terms=2) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        series.append(_UNPROVABLE[int(rng.integers(2))])
    count = draw(st.integers(1, 5))
    draws = draw(st.integers(0, min(2, count - 1)))
    vectors = []
    for _ in range(count - draws - 1):
        q = unit_region_volumes(rng, n)
        if rng.random() < 0.3:  # a last volume below its minimum leaves U
            q = q[:-1] + (0.01,)
        vectors.append(q)
    # inside U for every series here, at a drawn place: a suite may open outside U
    vectors.insert(draw(st.integers(0, len(vectors))), (1.0,) * n)
    return n, series, vectors, draws, seed


@settings(max_examples=30, deadline=None)
@given(suite=verify_suites(), fmt=st.sampled_from(["json", "csv"]))
def test_verify_shares_each_chain_and_matches_the_row_by_row_proof(tmp_path_factory, suite, fmt):
    n, series, vectors, draws, seed = suite
    path = tmp_path_factory.mktemp("suite") / "suite.json"
    path.write_text(json.dumps({
        "n_values": [n], "exponents": list(range(len(series))),
        "volumes": [list(q) for q in vectors], "random_q": draws,
    }))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "single_exponent_series", lambda a: series[int(a)])  # by index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--input", str(path), "--format", fmt, "--seed", str(seed)])
    assert (rc, out.getvalue(), err.getvalue().splitlines()) == _verify_row_by_row(
        n, series, vectors, draws, seed, fmt
    )


def _count_verify_calls(monkeypatch, suite: str) -> tuple[int, list[str], dict, int]:
    """verify's exit code and row statuses, its calls by name, and its chain costings."""
    calls = {"formulate": 0, "lp_solve": 0, "certifier": 0, "_suite_volumes": 0}

    def counting(name):
        original = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    costings = [0]
    costs = perturbed._costs

    def counted_costs(net):
        costings[0] += 1
        return costs(net)

    monkeypatch.setattr(perturbed, "_costs", counted_costs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", "--input", suite])
    rows = json.loads(out.getvalue())["instances"]
    return rc, [row["status"] for row in rows], calls, costings[0]


def test_verify_builds_one_lp_matrix_per_chain(write_config, monkeypatch):
    suite = write_config("suite.json", {
        "n_values": [4, 4], "exponents": [1.5, 2.0],
        "volumes": [[1.0] * 4, [1.2, 1.1, 1.3, 1.0], [1.0, 1.0, 1.0, 0.01]], "random_q": 0,
    })
    rc, statuses, calls, costings = _count_verify_calls(monkeypatch, suite)
    assert rc == 3
    assert statuses == ["optimal", "optimal", "outside_region"] * 4
    # 12 rows: one matrix, one dual point and one costing per (n, exponent),
    # HiGHS per outside row, the volume vectors parsed once per chain
    assert calls == {"formulate": 4, "lp_solve": 4, "certifier": 4, "_suite_volumes": 4}
    assert costings == 4


def test_verify_builds_no_lp_matrix_inside_the_region(write_config, monkeypatch):
    suite = write_config("suite.json", {
        "n_values": [4, 9], "exponents": [1.5, 2.0],
        "volumes": "unit", "random_q": 2,
    })
    rc, statuses, calls, costings = _count_verify_calls(monkeypatch, suite)
    assert rc == 0
    assert statuses == ["optimal"] * 12
    # the certificate comes from each chain's one costing; HiGHS is never needed
    assert calls == {"formulate": 0, "lp_solve": 0, "certifier": 4, "_suite_volumes": 4}
    assert costings == 4


def test_sweep_volume_grid(write_config, capsys):
    path = write_config("net.json", quadratic_chain(2))
    assert main(["sweep", "--input", path, "--param", "Q2", "--grid", "0.1:0.5:0.1",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,common_energy,min_flow"
    cells = [line.split(",") for line in lines[1:]]
    assert cells[0][1] == "outside"
    assert float(cells[0][2]) == pytest.approx(-0.15, abs=1e-9)
    assert cells[-1][1] != "outside"


def test_sweep_shift_grid_crosses_boundary(write_config, capsys):
    path = write_config("net.json", linear_chain(3))
    assert main(["sweep", "--input", path, "--param", "d1",
                 "--grid", "0.24:0.25:0.01", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    inside = lines[1].split(",")
    outside = lines[2].split(",")
    assert inside[1] != "outside"
    assert outside[1] == "outside"


def test_sweep_grid_validation(write_config, capsys):
    path = write_config("net.json", quadratic_chain(2))
    assert main(["sweep", "--input", path, "--param", "Q2", "--grid", "1:0:0.1"]) == 1
    assert main(["sweep", "--input", path, "--param", "Q2", "--grid", "0:1"]) == 1
    assert main(["sweep", "--input", path, "--param", "Q9", "--grid", "0.1:1:0.1"]) == 1
    assert main(["sweep", "--input", path, "--param", "d1", "--grid", "0.5:1.5:0.5"]) == 1
    assert main(["sweep", "--input", path, "--param", "Q2", "--grid", "0:1:0.5"]) == 1


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.5", "0:1:inf"])
def test_sweep_rejects_non_finite_grid(write_config, grid):
    # a subprocess with a timeout, so that a grid that never ends fails
    # the test instead of hanging it
    path = write_config("net.json", quadratic_chain(2))
    proc = subprocess.run(
        [sys.executable, "-m", "chainlife", "sweep", "--input", path, "--param", "Q1",
         "--grid", grid],
        capture_output=True, text=True, env=_child_env(), timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0]


def test_sweep_shift_that_reorders_nodes_is_config_error(write_config, capsys):
    path = write_config("net.json", quadratic_chain(3, shifts=[0.0, -0.6, 0.0]))
    assert main(["sweep", "--input", path, "--param", "d3", "--grid", "0:0.9:0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: d3 = 0.6")


@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:2e6:1", "0:1e308:1e-10"])
def test_sweep_rejects_a_grid_of_too_many_steps(write_config, capsys, grid):
    path = write_config("net.json", quadratic_chain(2))
    assert main(["sweep", "--input", path, "--param", "Q1", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --grid") and "steps" in lines[0]


def test_grid_step_below_the_float_spacing_at_lo_ends():
    # 1e20 + 1 == 1e20: the points stop after one step past HI, not at 2**13
    assert cli._parse_grid("1e20:1e20:1") == [1e20, 1e20]


def test_grid_of_the_most_steps_is_accepted():
    values = cli._parse_grid("0:1000000:1")
    assert len(values) == 1_000_001 and values[-1] == 1_000_000.0


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_output_that_cannot_be_written_is_config_error(write_config, tmp_path, capsys, where):
    path = write_config("net.json", quadratic_chain(2))
    out = tmp_path / "absent" / "out.json" if where == "missing-directory" else tmp_path
    assert main(["solve-regular", "--input", path, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")


def _fails_after_one_part(error: BaseException):
    yield "first part\n"
    raise error


@pytest.mark.parametrize("error", [ValueError("documents only carry finite reals"),
                                   OSError(28, "No space left on device")])
def test_a_document_that_fails_while_it_streams_leaves_no_file(tmp_path, error):
    out = tmp_path / "out.json"
    out.write_text("an older result\n")
    args = argparse.Namespace(output=str(out))
    if isinstance(error, OSError):
        with pytest.raises(ConfigError, match=f"^cannot write {out}: No space left on device$"):
            cli._write(args, _fails_after_one_part(error))
    else:
        with pytest.raises(ValueError, match="^documents only carry finite reals$"):
            cli._write(args, _fails_after_one_part(error))
    assert os.listdir(tmp_path) == []


def test_a_failed_stream_leaves_a_path_that_is_no_regular_file(tmp_path):
    # a link (like a device such as /dev/null) is not removed
    target = tmp_path / "target.json"
    target.write_text("")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with pytest.raises(ValueError):
        cli._write(argparse.Namespace(output=str(link)), _fails_after_one_part(ValueError()))
    assert link.is_symlink() and target.is_file()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_output_that_cannot_be_opened_starts_no_part_and_removes_nothing(tmp_path, where):
    out = tmp_path / "absent" / "out.json" if where == "missing-directory" else tmp_path
    before = sorted(tmp_path.iterdir())
    parts = _fails_after_one_part(ValueError())
    with pytest.raises(ConfigError, match=f"^cannot write {out}: "):
        cli._write(argparse.Namespace(output=str(out)), parts)
    assert sorted(tmp_path.iterdir()) == before
    assert next(parts) == "first part\n"  # the generator was never started


def _streamed(parts_of, capsysbinary, tmp_path) -> tuple[bytes, bytes]:
    """The bytes _write writes to a file and to stdout, each from new parts."""
    out = tmp_path / "streamed"
    cli._write(argparse.Namespace(output=str(out)), parts_of())
    capsysbinary.readouterr()
    cli._write(argparse.Namespace(output=None), parts_of())
    return out.read_bytes(), capsysbinary.readouterr().out


def _flow_solution(rows: int) -> EqualEnergySolution:
    """A solution document's content with exactly the given number of flows."""
    rng = np.random.default_rng(rows)
    amounts = rng.uniform(0.0, 2.0, rows).tolist()
    flow = FlowMatrix(rows, {(i, 0): amounts[i - 1] for i in range(1, rows + 1)})
    energies = tuple(rng.uniform(1.0, 2.0, rows).tolist())
    return EqualEnergySolution(flow, energies, energies[0])


B = docs.BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 1])
def test_streamed_solutions_equal_the_joined_strings(rows, capsysbinary, tmp_path):
    sol = _flow_solution(rows)
    cases = [
        (lambda: docs.json_parts(docs.solution_document(sol)),
         docs.json_dumps(docs.solution_document(sol))),
        (lambda: docs.solution_csv_parts(sol), docs.solution_csv(sol)),
    ]
    for parts_of, joined in cases:
        written, printed = _streamed(parts_of, capsysbinary, tmp_path)
        assert written == printed == joined.encode("utf-8")
    text = cases[0][1]
    assert len(json.loads(text)["flows"]) == rows
    assert cases[1][1].count("\n") == rows + 1


def test_streamed_documents_of_every_kind_equal_the_joined_strings(capsysbinary, tmp_path):
    series = build_cost_series([(0.25, 1.5), (0.75, 2.5)])
    d_rows = [(i, (-0.1 * i, 0.2 * i), perturbed.StabilityInterval(-0.05 * i, 0.15 * i))
              for i in range(1, 4)]
    q_rows = [(1, 0.0, 2.5), (2, 0.0, float("nan")), (3, 0.25, None)]
    sweep_rows = [(0.01 * k, None if k % 7 == 0 else 1.0 + k / 3, 0.5 - k / 900)
                  for k in range(B + 2)]
    verify_rows = [
        {"n": 3, "series": series_to_terms(series), "volumes": [1.0, 1.25, 1.5], "lp": 2.5,
         "closed_form": 2.5, "gap": 1e-16, "status": "optimal"},
        {"n": 3, "series": series_to_terms(series), "volumes": [3.0, 0.5, 0.5], "lp": 4.0,
         "closed_form": None, "gap": None, "status": "outside_region"},
    ]
    cases = [
        (docs.stability_d_document(d_rows, series), docs.stability_d_csv_parts,
         docs.stability_d_csv, d_rows),
        (docs.stability_q_document(q_rows, True, None), docs.stability_q_csv_parts,
         docs.stability_q_csv, q_rows),
        (docs.sweep_document(sweep_rows), docs.sweep_csv_parts, docs.sweep_csv, sweep_rows),
        (docs.verify_document(verify_rows, 1e-9), docs.verify_csv_parts, docs.verify_csv,
         verify_rows),
    ]
    for doc, csv_parts, csv, rows in cases:
        for parts_of, joined in [(lambda: docs.json_parts(doc), docs.json_dumps(doc)),
                                 (lambda: csv_parts(rows), csv(rows))]:
            written, printed = _streamed(parts_of, capsysbinary, tmp_path)
            assert written == printed == joined.encode("utf-8")
        assert json.loads(docs.json_dumps(doc)) == json.loads(json.dumps(doc))
    assert docs.sweep_csv(sweep_rows).count("\n") == B + 3


def test_writing_a_large_solution_holds_no_whole_document(write_config, tmp_path):
    # the JSON op's traced peak above its load and solve's is under half its file
    n = 20_000
    rng = np.random.default_rng(20)
    doc = {"n": n, "volumes": (1.0 + 0.5 * rng.random(n)).tolist(),
           "cost": {"terms": [{"lambda": 0.4, "exponent": 1.5},
                              {"lambda": 0.6, "exponent": 2.5}]}}
    path = write_config("big.json", doc)
    out = tmp_path / "big-out.json"
    peaks = []
    for run in (lambda: solve_equal_energy(docs.load_network(path)),
                lambda: main(["solve-regular", "--input", path, "--output", str(out)])):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    solve_peak, op_peak = peaks
    size = out.stat().st_size
    assert size > 3_000_000
    assert op_peak - solve_peak < size / 2


def test_verify_negative_seed_with_draws_is_config_error(write_config, capsys):
    doc = {"n_values": [3], "exponents": [2.0], "volumes": "unit", "random_q": 2}
    suite = write_config("suite.json", doc)
    assert main(["verify", "--input", suite, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --seed")
    # without draws the seed is unused
    suite = write_config("plain.json", {**doc, "random_q": 0})
    assert main(["verify", "--input", suite, "--seed", "-1"]) == 0
    negative = capsys.readouterr()
    assert main(["verify", "--input", suite]) == 0
    assert capsys.readouterr() == negative


def _sweep_point(net: PerturbedNetwork, kind: str, index: int, value: float):
    """One sweep row from a full solve of the chain with the one value replaced."""
    volumes, shifts = list(net.volumes), list(net.shifts)
    (volumes if kind == "Q" else shifts)[index - 1] = value
    try:
        probe = PerturbedNetwork(net.n, tuple(shifts), tuple(volumes), net.series)
    except ValueError as exc:  # a shift that moves a node past its neighbour
        raise ConfigError(f"{kind}{index} = {value:g}: {exc}") from None
    sol = perturbed.solve_equal_energy(probe, check_flows=False)
    min_flow = sol.flow.min_entry()
    energy = sol.common_energy if min_flow >= -FLOW_ZERO_TOL else None
    return energy, min_flow


def test_sweep_matches_a_full_solve_per_point(write_config, capsys):
    # a sweep costs the chain once and reruns only the walk per point; its
    # bytes must be those of solving each point's chain anew
    rng = np.random.default_rng(9090)
    exits = []
    for case in range(24):
        n = int(rng.integers(2, 30))
        series = random_series(rng)
        shifts = [float(v) for v in rng.uniform(-0.3, 0.3, size=n)]
        if case % 2:
            volumes = [float(v) for v in rng.uniform(0.1, 3.0, size=n)]
        else:
            volumes = list(unit_region_volumes(rng, n))
        net = PerturbedNetwork(n, tuple(shifts), tuple(volumes), series)
        doc = {"n": n, "volumes": volumes, "shifts": shifts,
               "cost": {"terms": series_to_terms(series)}}
        path = write_config("net.json", doc)
        index = int(rng.integers(1, n + 1))
        for param, grid in ((f"Q{index}", "0.1:3:0.29"), (f"d{index}", "-0.9:0.9:0.15")):
            fmt = ("json", "csv")[case % 2]
            try:
                rows = [(v, *_sweep_point(net, param[0], index, v))
                        for v in cli._parse_grid(grid)]
            except ConfigError as exc:
                expected = (1, "", f"error: {exc}\n")
            else:
                text = (docs.sweep_csv(rows) if fmt == "csv"
                        else docs.json_dumps(docs.sweep_document(rows)))
                expected = (0, text, "")
            code = main(["sweep", "--input", path, "--param", param, f"--grid={grid}",
                         "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected, (case, param)
            exits.append(code)
    assert 0 in exits and 1 in exits


def _sweep_rows(path: str, param: str, grid: str, capsys) -> list[dict]:
    assert main(["sweep", "--input", path, "--param", param, f"--grid={grid}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out)


@pytest.mark.parametrize(
    "param, grids",
    [("Q200", ["1e-6:1:0.05", "1:1000:37"]), ("Q1", ["0.5:50:2.5", "50:10000:450"])],
)
def test_volume_sweep_far_outside_the_region(write_config, capsys, param, grids):
    # the sweep solves with the energy-spread check on; far outside the
    # volume region it must still report rows, marked outside exactly where
    # a raw flow component is negative
    n = 200
    rng = np.random.default_rng(2002)
    volumes = [float(v) for v in 1.0 + rng.uniform(0.0, 0.5, size=n)]
    doc = quadratic_chain(n, volumes=volumes)
    doc["cost"]["terms"] = [{"lambda": 0.4, "exponent": 1.3}, {"lambda": 0.6, "exponent": 2.6}]
    path = write_config("net.json", doc)
    series = build_cost_series([(0.4, 1.3), (0.6, 2.6)])
    index = int(param[1:])
    sides = set()
    for grid in grids:
        for row in _sweep_rows(path, param, grid, capsys):
            probe = list(volumes)
            probe[index - 1] = row["param"]
            net = RegularNetwork(n, tuple(probe), series)
            outside = min(raw_flows(net).values()) < -FLOW_ZERO_TOL
            assert row["outside"] is outside, row
            sides.add(outside)
            if not outside:
                expected = node_energy_closed_form(net)
                assert row["common_energy"] == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert sides == {True, False}


def test_volume_sweep_energy_matches_the_closed_form(write_config, capsys):
    rng = np.random.default_rng(4141)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        volumes = [float(v) for v in 1.0 + rng.uniform(0.0, 0.5, size=n)]
        a = float(rng.uniform(1.0, 3.0))
        doc = quadratic_chain(n, volumes=volumes)
        doc["cost"]["terms"][0]["exponent"] = a
        path = write_config("net.json", doc)
        index = int(rng.integers(1, n + 1))
        for row in _sweep_rows(path, f"Q{index}", "0.2:3:0.2", capsys):
            if row["outside"]:
                continue
            probe = list(volumes)
            probe[index - 1] = row["param"]
            net = RegularNetwork(n, tuple(probe), build_cost_series([(1.0, a)]))
            expected = node_energy_closed_form(net)
            assert row["common_energy"] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_stdout_that_cannot_be_written_is_one_error_line(write_config, capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    closed = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", closed)
    assert main(["solve-regular", "--input", write_config("net.json", quadratic_chain(2))]) == 1
    assert sys.stdout is closed  # an in-process caller keeps its stdout
    _assert_one_error_line(capsys, "cannot write stdout: Broken pipe")


def _child_env() -> dict:
    # the child imports the same chainlife as this test, installed or not
    src = os.path.dirname(os.path.dirname(chainlife.__file__))
    path_list = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path_list))


def test_module_entry_point(write_config, tmp_path):
    path = write_config("net.json", quadratic_chain(2))
    proc = subprocess.run(
        [sys.executable, "-m", "chainlife", "solve-regular", "--input", path],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["common_energy"] == 1.75


def test_a_closed_stdout_pipe_is_one_error_line():
    # the reader is gone before the first write: no traceback, and no
    # second message from the interpreter's flush at exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chainlife", "verify", "--format", "csv"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: ")


def _extreme_reals(extremes, lo: float, hi: float):
    return st.one_of(st.sampled_from(extremes), st.floats(lo, hi))


@st.composite
def cli_calls(draw):
    """A subcommand with its arguments and config: n <= 6, finite extremes, small grids."""
    n = draw(st.integers(1, 6))
    volume = _extreme_reals([1.0, 5e-324, 1e-308, 0.5, 2.0, 1e20, 1e308, 0.0, -1.0], 0.0, 1e308)
    volumes = draw(st.one_of(st.just([1.0] * n), st.lists(volume, min_size=n, max_size=n)))
    exponent = _extreme_reals([1.0, 2.0, 1000.0, 0.5], 1.0, 1000.0)
    lam = _extreme_reals([1.0, 0.0, 1e308, 5e-324], 0.0, 1e308)
    terms = draw(st.one_of(
        st.builds(lambda a: [(1.0, a)], exponent),
        st.lists(st.tuples(lam, exponent), min_size=1, max_size=3),
    ))
    command = draw(st.sampled_from(
        ["solve-regular", "solve-perturbed", "stability-q", "stability-d", "verify", "sweep"]
    ))
    argv = [command, "--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "verify":
        doc = {
            "n_values": [n],
            "exponents": [a for _, a in terms],
            "volumes": draw(st.sampled_from(["unit", [volumes]])),
            "random_q": draw(st.integers(0, 2)),
        }
        return doc, argv + ["--seed", str(draw(st.integers(0, 3)))]
    doc = {
        "n": n,
        "volumes": volumes,
        "cost": {
            "terms": [{"lambda": lam, "exponent": a} for lam, a in terms],
            "auto_normalize": draw(st.booleans()),
        },
    }
    if draw(st.booleans()):
        shift = _extreme_reals([0.0, 0.999999, -0.999999, 1.0], -1.0, 1.0)
        doc["shifts"] = draw(st.lists(shift, min_size=n, max_size=n))
    if command in ("stability-q", "stability-d"):
        nodes = draw(st.lists(st.integers(1, n), min_size=1, max_size=n))
        argv += ["--nodes", draw(st.sampled_from(["all", ",".join(map(str, nodes))]))]
    elif command == "sweep":
        # at most 20 points from LO <= 1e20, with STEP above the float spacing there
        lo = draw(st.one_of(st.floats(-1.0, 1.0), st.floats(-1e20, 1e20)))
        step = draw(st.floats(max(abs(lo), 1.0) * 1e-15, 1e20))
        hi = lo + draw(st.integers(0, 19)) * step
        argv += ["--param", f"{draw(st.sampled_from('Qd'))}{draw(st.integers(1, n))}",
                 f"--grid={lo!r}:{hi!r}:{step!r}"]
    return doc, argv


@settings(max_examples=150, deadline=None)
@given(call=cli_calls())
def test_every_subcommand_ends_in_an_exit_code_not_a_traceback(tmp_path_factory, call):
    # an exception escaping main is the traceback a user would see; a
    # non-zero exit names its cause on an error: line, except verify's
    # documented silent exit 3 on outside_region rows
    doc, argv = call
    path = tmp_path_factory.mktemp("call") / "config.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--input", str(path)])
    assert rc in (0, 1, 2, 3)
    if rc != 0:
        silent_outside = argv[0] == "verify" and rc == 3 and "outside_region" in out.getvalue()
        assert silent_outside or any(
            line.startswith("error:") for line in err.getvalue().splitlines()
        ), (argv, err.getvalue())
