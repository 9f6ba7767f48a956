"""Command-line behavior: exit codes, diagnostics, output stability."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chainlife
from chainlife import (
    PerturbedNetwork,
    RegularNetwork,
    build_cost_series,
    cli,
    node_energy_closed_form,
    numeric_d_interval,
    oracle,
    perturbed,
    regular,
    stability_bounds_d,
)
from chainlife import documents as docs
from chainlife.cli import main
from chainlife.errors import ConfigError
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


@pytest.mark.parametrize("n", [10, 500])
def test_stability_q_costs_the_chain_once_for_all_limits(write_config, capsys, monkeypatch, n):
    # every node's limit comes from one costing; the q-constraint check
    # costs the chain once more, whatever the node count
    calls = [0]
    costs = regular._costs

    def counted(net):
        calls[0] += 1
        return costs(net)

    monkeypatch.setattr(regular, "_costs", counted)
    path = write_config("net.json", quadratic_chain(n))
    assert main(["stability-q", "--input", path, "--nodes", "all"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == n
    assert calls[0] == 2


@pytest.mark.parametrize("n", [10, 200])
def test_stability_d_shares_one_set_up(write_config, capsys, monkeypatch, n):
    # the chain is costed once for all nodes and walked at d = 0 once; each
    # node then adds the full walks at its two sides' last feasible probes
    counts = {"_costs": 0, "_equal_energy_flows": 0}
    for name in counts:
        original = getattr(perturbed, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(perturbed, name, counted)
    path = write_config("net.json", quadratic_chain(n))
    assert main(["stability-d", "--input", path, "--nodes", "all"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == n
    assert counts["_costs"] == 1
    assert counts["_equal_energy_flows"] <= 1 + 2 * n


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
