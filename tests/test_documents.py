"""Config parsing and deterministic JSON/CSV serialization."""
from __future__ import annotations

import json
import math

import pytest

from chainlife import ConfigError, flow_closed_form
from chainlife.documents import (
    csv_text,
    format_real,
    json_dumps,
    load_network,
    parse_cost,
    parse_network,
    solution_csv,
    solution_document,
    stability_q_csv,
    sweep_csv,
)


def chain_doc(**overrides):
    doc = {
        "n": 2,
        "volumes": [1.0, 1.0],
        "cost": {"terms": [{"lambda": 1.0, "exponent": 2.0}]},
    }
    doc.update(overrides)
    return doc


def test_parse_regular_network():
    net = parse_network(chain_doc())
    assert net.shifts == (0.0, 0.0)
    assert net.n == 2
    assert net.volumes == (1.0, 1.0)


def test_zero_shifts_stay_regular():
    net = parse_network(chain_doc(shifts=[0, 0.0]))
    assert net.shifts == (0.0, 0.0)
    assert net == parse_network(chain_doc())


def test_parse_perturbed_network():
    net = parse_network(chain_doc(shifts=[0.25, 0.0]))
    assert net.shifts == (0.25, 0.0)


@pytest.mark.parametrize(
    "mutant",
    [
        {"n": 0},
        {"n": 2.5},
        {"n": True},
        {"volumes": [1.0]},
        {"volumes": "unit"},
        {"volumes": [1.0, "x"]},
        {"volumes": [1.0, -1.0]},
        {"cost": None},
        {"cost": {"terms": []}},
        {"cost": {"terms": [{"lambda": 1.0}]}},
        {"cost": {"terms": [{"lambda": -1.0, "exponent": 2.0}], "auto_normalize": True}},
        {"cost": {"terms": [{"lambda": 1.0, "exponent": 2.0}], "auto_normalize": "yes"}},
        {"shifts": [1.5, 0.0]},
        {"shifts": 3},
        {"shifts": [0.1]},
        {"shifts": [False, 0]},
    ],
)
def test_malformed_configs_raise_config_error(mutant):
    with pytest.raises(ConfigError):
        parse_network(chain_doc(**mutant))


def test_parse_cost_auto_normalize():
    series = parse_cost(
        {"terms": [{"lambda": 2.0, "exponent": 1.0}, {"lambda": 2.0, "exponent": 2.0}],
         "auto_normalize": True}
    )
    assert series.terms == ((0.5, 1.0), (0.5, 2.0))


def test_load_network_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_network(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_network(str(bad))
    good = tmp_path / "net.json"
    good.write_text(json.dumps(chain_doc()))
    assert load_network(str(good)).n == 2


def test_format_real_precision():
    assert format_real(0.1) == "0.10000000000000001"
    assert format_real(1.75) == "1.75"
    assert format_real(1 / 3, digits=12) == "0.333333333333"
    with pytest.raises(ValueError):
        format_real(math.inf)


def test_json_round_trip_and_determinism():
    doc = {
        "name": "net",
        "values": [0.1, 2, True, None],
        "nested": {"empty": [], "blank": {}},
    }
    text = json_dumps(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc
    assert json_dumps(doc) == text
    # 17 significant digits reproduce the exact double
    assert json.loads(json_dumps({"x": 0.1}))["x"] == 0.1


def test_json_rejects_unserializable():
    with pytest.raises(TypeError):
        json_dumps({"x": {1, 2}})


def test_csv_formatting():
    text = csv_text("a,b,c", [(1, 0.5, "word"), (2, 1 / 3, True)])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,word"
    assert lines[2] == "2,0.333333333333,true"
    assert text.endswith("\n")


def test_solution_documents():
    net = parse_network(chain_doc())
    sol = flow_closed_form(net)
    doc = solution_document(sol)
    assert doc["flows"] == [
        {"from": 1, "to": 0, "amount": 1.75},
        {"from": 2, "to": 0, "amount": 0.25},
        {"from": 2, "to": 1, "amount": 0.75},
    ]
    assert doc["common_energy"] == 1.75
    csv = solution_csv(sol)
    assert csv.splitlines()[0] == "from,to,amount"
    assert csv.splitlines()[1] == "1,0,1.75"


def test_stability_and_sweep_rows():
    q_rows = [(1, 0.0, 4.0), (2, 0.25, None)]
    text = stability_q_csv(q_rows)
    assert text.splitlines() == ["node,q_min,q_max", "1,0,4", "2,0.25,inf"]
    sweep_rows = [(0.1, 1.5, 0.2), (0.2, None, -0.05)]
    text = sweep_csv(sweep_rows)
    assert text.splitlines() == [
        "param,common_energy,min_flow",
        "0.1,1.5,0.2",
        "0.2,outside,-0.05",
    ]
