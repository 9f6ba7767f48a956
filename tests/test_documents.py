"""Config parsing and deterministic JSON/CSV serialization."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlife import (
    ConfigError,
    PerturbedNetwork,
    flow_closed_form,
    single_exponent_series,
    solve_equal_energy,
)
from chainlife import documents
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
    stability_q_document,
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


# floats whose shortest repr is also their 17-digit text, so that the stdlib
# encoder and json_dumps agree on them
json_reals = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: repr(x) == format(x, ".17g")
)
json_texts = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f", "é漢😀", "</script>"]
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_reals | json_texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_texts, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(json_texts, json_values, max_size=5))
def test_json_dumps_matches_the_stdlib_encoder(doc):
    assert json_dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_dumps_cases_the_stdlib_encoder_does_not_see():
    assert json_dumps({"pair": (1, 0.5)}) == '{\n  "pair": [\n    1,\n    0.5\n  ]\n}\n'
    assert json_dumps([np.float64(0.1)]) == "[\n  0.10000000000000001\n]\n"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            json_dumps({"x": [bad]})


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


@pytest.mark.parametrize(
    "volumes, message",
    [
        ([1.0, 1.0, math.inf], "volumes[2] must be a finite number, got inf"),
        ([1.0, -math.inf, 1.0], "volumes[1] must be a finite number, got -inf"),
        ([math.nan, 1.0, 1.0], "volumes[0] must be a finite number, got nan"),
        ([1.0, True, 1.0], "volumes[1] must be a number"),
        ([1.0, 1.0, "1"], "volumes[2] must be a number"),
        ([1.0, 10**400, 1.0], "volumes[1] must be a finite number, got inf"),
    ],
)
def test_parse_errors_name_the_first_bad_volume(volumes, message):
    with pytest.raises(ConfigError) as info:
        parse_network(chain_doc(n=3, volumes=volumes))
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        parse_network(chain_doc(n=3, volumes=[1.0, 1.0, 1.0], shifts=volumes))
    assert str(info.value) == message.replace("volumes", "shifts")


def test_parsed_reals_are_floats_whatever_their_literal():
    net = parse_network(chain_doc(n=3, volumes=[1, 2.5, 3], shifts=[0, 0.0, -0.0]))
    assert net.volumes == (1.0, 2.5, 3.0)
    assert list(map(type, net.volumes)) == [float] * 3


# runs long enough for the one-format path of json_dumps and csv_text
RUN = documents._RUN_MIN


def item_by_item(write, *args):
    """What write returns when every run is written value by value."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(documents, "_RUN_MIN", math.inf)
        return write(*args)


class Real(float):
    """A float subclass: json_dumps and csv_text write it value by value."""


run_keys = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6
) | st.sampled_from(["%", "%d", "%%s", "a%", '"', "\\", "é漢😀", "%(x)s"])
run_ints = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(
    min_value=-(2**70), max_value=-(2**63) + 2
)
edge_reals = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -2.2250738585072014e-308])
run_reals = st.floats(allow_nan=False, allow_infinity=False) | edge_reals


@st.composite
def uniform_runs(draw, reals=run_reals):
    """A list of same-shaped values: exact floats, exact ints, or dicts of one
    key order that keep one exact type per key."""
    count = draw(st.integers(min_value=RUN, max_value=RUN + 8))
    shape = draw(st.sampled_from(["floats", "ints", "dicts"]))
    if shape == "floats":
        return draw(st.lists(reals, min_size=count, max_size=count))
    if shape == "ints":
        return draw(st.lists(run_ints, min_size=count, max_size=count))
    keys = draw(st.lists(run_keys, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([reals, run_ints])) for _ in keys]
    return [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(count)]


# items that break a run's shape when they come last: the run before them
# is written in one format call and they value by value
odd_items = st.sampled_from([None, True, "x", 2**70, 0.25, 3, [1.5], {"x": None}, {}])


@settings(max_examples=300, deadline=None)
@given(run=uniform_runs(), key=run_keys, odd=odd_items)
def test_uniform_runs_match_the_value_by_value_path(run, key, odd):
    odd_last = run + [odd if not isinstance(run[0], dict) else dict.fromkeys(run[0], odd)]
    for doc in (run, {key: run, "after": [run, run]}, odd_last, {key: [odd_last, run]}):
        text = json_dumps(doc)
        assert text == item_by_item(json_dumps, doc)
        assert json.loads(text) == doc
    if all(repr(x) == format(x, ".17g") for x in _reals_of(run)):
        assert json_dumps(run) == json.dumps(run, indent=2) + "\n"
    rows = [tuple(row.values()) if isinstance(row, dict) else (row, row) for row in run]
    assert csv_text("h", rows) == item_by_item(csv_text, "h", rows)
    for last in (rows[-1][:-1] + (odd,), rows[-1] + (odd,), (odd,) * len(rows[-1])):
        assert csv_text("h", rows + [last]) == item_by_item(csv_text, "h", rows + [last])


def _reals_of(run):
    for item in run:
        yield from (item.values() if isinstance(item, dict) else [item])


# numpy.float64 values whose repr is their 17-digit text, as json_reals
breakers = st.sampled_from([True, False, None, np.float64(0.375), np.float64(-2.5), [1.5], {}])


@settings(max_examples=300, deadline=None)
@given(run=uniform_runs(reals=json_reals), breaker=breakers, data=st.data())
def test_broken_runs_match_the_stdlib_encoder(run, breaker, data):
    # a bool, None, numpy.float64, nested container or empty dict anywhere
    # in the run, in place of a value or of a whole item
    run = list(run)
    where = data.draw(st.integers(min_value=0, max_value=len(run) - 1))
    if isinstance(run[where], dict) and data.draw(st.booleans()):
        item = dict(run[where])
        item[data.draw(st.sampled_from(sorted(item)))] = breaker
        run[where] = item
    else:
        run[where] = breaker
    text = json_dumps(run)
    assert text == json.dumps(run, indent=2) + "\n"
    assert text == item_by_item(json_dumps, run)
    rows = [tuple(row.values()) if isinstance(row, dict) else (row,) for row in run]
    assert csv_text("h", rows) == item_by_item(csv_text, "h", rows)


def test_edge_runs_match_the_stdlib_encoder():
    # runs of one shape but for one item, first, last or inside; and runs of
    # int keys or of ints beyond the float range
    row = {"a": 1.5, "b": 2**70}
    for run in (
        [{}] * RUN,
        [row] * (RUN - 1) + [None],
        [None] + [row] * RUN,
        [row] * RUN + [{"b": 2**70, "a": 1.5}],
        [row] * RUN + [{"a": 1.5, "b": 2.5}],
        [row] * RUN + [{"a": 1.5, "b": 2.5}, row],
        [row] * RUN + [{"a": True, "b": 2**70}, row],
        [1.5] * RUN + [2],
        [2] + [1.5] * RUN,
        [2**70] * RUN + [2.5, 2**70],
        [1.5] * RUN + [True, 1.5],
        [{1: 0.5, 2: 1.5}] * RUN,
        [{"a": 1.5, "b": 10**400}] * RUN,
    ):
        assert json_dumps(run) == json.dumps(run, indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, RUN // 2, RUN - 1])
def test_a_non_finite_real_in_a_run_raises_on_both_paths(bad, where):
    floats = [0.5 * k for k in range(RUN)]
    floats[where] = bad
    flows = [{"from": k, "to": 0, "amount": x} for k, x in enumerate(floats)]
    rows = [(k, 0, x) for k, x in enumerate(floats)]
    cases = [
        (json_dumps, floats),
        (json_dumps, {"flows": flows}),
        (csv_text, "from,to,amount", rows),
        (csv_text, "x", [(x,) for x in floats]),
        # the same before an odd last item, which leaves the rest a run
        (json_dumps, floats + [None]),
        (json_dumps, {"flows": flows + [{"from": RUN, "to": 0, "amount": None}]}),
        (csv_text, "from,to,amount", rows + [(RUN, 0, "inf")]),
    ]
    for write, *args in cases:
        for path in (write, lambda *a, w=write: item_by_item(w, *a)):
            with pytest.raises(ValueError, match="^documents only carry finite reals$"):
                path(*args)


def test_a_run_fails_where_the_value_by_value_path_fails():
    # an unserializable value after a non-finite one raises ValueError, and
    # before it TypeError, as when each value is written in turn
    floats = [{"x": 0.5 * k} for k in range(RUN)]
    for first, then, error in [(math.inf, {1}, ValueError), ({1}, math.inf, TypeError)]:
        run = [*floats, {"x": first}, {"x": then}]
        for path in (json_dumps, lambda doc: item_by_item(json_dumps, doc)):
            with pytest.raises(error):
                path(run)
    # in a run before an odd last item: the run's inf comes first
    for run in ([*floats, {"x": math.inf}, {"x": {1}}], [*floats, {"x": math.inf}, {1}]):
        for path in (json_dumps, lambda doc: item_by_item(json_dumps, doc)):
            with pytest.raises(ValueError):
                path(run)


def test_percent_formats_equal_format_on_random_bit_patterns():
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    checked = 0
    for x in map(float, values):
        if math.isfinite(x):
            assert "%.17g" % x == format(x, ".17g")
            assert "%.12g" % x == format(x, ".12g")
            checked += 1
    assert checked > 49_000


def _unit_solution(n):
    net = PerturbedNetwork(n, (0.0,) * n, (1.0,) * n, single_exponent_series(2.5))
    return solve_equal_energy(net)


def test_solution_documents_take_the_one_format_path():
    sol = _unit_solution(1000)
    doc = solution_document(sol)
    wrapped = {
        "flows": [{key: Real(v) if type(v) is float else v for key, v in row.items()}
                  for row in doc["flows"]],
        "node_energies": [Real(e) for e in doc["node_energies"]],
        "common_energy": Real(doc["common_energy"]),
    }
    assert json_dumps(doc) == json_dumps(wrapped)
    rows = [(i, j, Real(v)) for (i, j), v in sol.flow.items()]
    assert solution_csv(sol) == csv_text("from,to,amount", rows)


def test_solution_document_calls_do_not_grow_with_the_chain(monkeypatch):
    calls = []
    text, run_text, csv_run_text = documents._text, documents._run_text, documents._csv_run_text

    def counted(name, write):
        def wrapper(*args):
            result = write(*args)
            calls.append((name, result is not None))
            return result
        return wrapper

    monkeypatch.setattr(documents, "_text", counted("text", text))
    monkeypatch.setattr(documents, "_run_text", counted("run", run_text))
    monkeypatch.setattr(documents, "_csv_run_text", counted("csv", csv_run_text))
    seen = []
    for n in (100, 1000):
        sol = _unit_solution(n)
        calls.clear()
        json_dumps(solution_document(sol))
        solution_csv(sol)
        seen.append(sorted(calls))
    # the document, its flows and its node energies; both runs take the format path
    assert seen[0] == seen[1]
    assert seen[0].count(("text", True)) == 3
    assert ("run", False) not in seen[0] and seen[0].count(("run", True)) == 2
    assert seen[0].count(("csv", True)) == 1


def test_an_odd_last_row_leaves_the_rest_a_run(monkeypatch):
    # stability-q over every node: the last node's q_max is null (JSON) and
    # inf (CSV), so its row breaks the shape; the other rows are one run
    calls = []
    json_run, csv_run = documents._same_shape_text, documents._same_shape_csv

    def counted(name, write):
        def wrapper(*args):
            result = write(*args)
            calls.append((name, len(args[0]), result is not None))
            return result
        return wrapper

    n = 1000
    rows = [(i, 0.0, 1.0 + i / 7) for i in range(1, n)] + [(n, 0.5, None)]
    expected = (
        item_by_item(json_dumps, stability_q_document(rows, True, True)),
        item_by_item(stability_q_csv, rows),
    )
    monkeypatch.setattr(documents, "_same_shape_text", counted("json", json_run))
    monkeypatch.setattr(documents, "_same_shape_csv", counted("csv", csv_run))
    assert (json_dumps(stability_q_document(rows, True, True)), stability_q_csv(rows)) == expected
    assert calls == [
        ("json", n, False), ("json", n - 1, True), ("csv", n, False), ("csv", n - 1, True)
    ]
    # a run of exactly _RUN_MIN before the odd row is not split: the rest is too short
    calls.clear()
    short = rows[: RUN - 1] + rows[-1:]
    assert json_dumps(stability_q_document(short, True, True)) == item_by_item(
        json_dumps, stability_q_document(short, True, True)
    )
    assert stability_q_csv(short) == item_by_item(stability_q_csv, short)
    assert calls == [("json", RUN, False), ("csv", RUN, False)]
