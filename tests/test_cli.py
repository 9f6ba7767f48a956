"""Command-line behavior: exit codes, diagnostics, output stability."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chainlife
from chainlife import RegularNetwork, build_cost_series, cli, node_energy_closed_form, oracle
from chainlife.cli import main
from chainlife.regular import raw_flows
from chainlife.validate import FLOW_ZERO_TOL
from chainlife.cost import CostSeries
from chainlife.oracle import Certificate


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


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["solve-regular", "--input", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


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
