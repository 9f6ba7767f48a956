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
    EqualEnergySolution,
    FlowMatrix,
    PerturbedNetwork,
    StabilityInterval,
    build_cost_series,
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
    stability_d_csv,
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
    doc = json.loads(json_dumps(solution_document(sol)))
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


# a list length for the run tests
RUN = 8


class Real(float):
    """A float subclass: json_dumps and csv_text write it value by value."""


def _as_reals(value):
    """value with every exact float, in lists, tuples and dict values, made a Real."""
    if type(value) is float:
        return Real(value)
    if isinstance(value, dict):
        return {key: _as_reals(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_as_reals, value))
    return value


def item_by_item(write, *args):
    """What write returns when every float is written value by value: as a Real,
    which the one-format float run refuses."""
    return write(*map(_as_reals, args))


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


# items that break a run's shape when they come last
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
        # the same before an odd last item
        (json_dumps, floats + [None]),
        (json_dumps, {"flows": flows + [{"from": RUN, "to": 0, "amount": None}]}),
        (csv_text, "from,to,amount", rows + [(RUN, 0, "inf")]),
    ]
    for write, *args in cases:
        with pytest.raises(ValueError, match="^documents only carry finite reals$"):
            write(*args)
    for doc in (floats, floats + [None]):  # the float lists again, value by value
        with pytest.raises(ValueError, match="^documents only carry finite reals$"):
            item_by_item(json_dumps, doc)


def test_a_run_fails_where_the_value_by_value_path_fails():
    # an unserializable value after a non-finite one raises ValueError, and
    # before it TypeError, as when each value is written in turn
    floats = [{"x": 0.5 * k} for k in range(RUN)]
    for first, then, error in [(math.inf, {1}, ValueError), ({1}, math.inf, TypeError)]:
        with pytest.raises(error):
            json_dumps([*floats, {"x": first}, {"x": then}])
    # in a run before an odd last item: the run's inf comes first
    for run in ([*floats, {"x": math.inf}, {"x": {1}}], [*floats, {"x": math.inf}, {1}]):
        with pytest.raises(ValueError):
            json_dumps(run)


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


def _flow_dicts(sol, real=float):
    """A solution's flows as the value-by-value path writes them: one dict per flow."""
    return [{"from": i, "to": j, "amount": real(v)} for (i, j), v in sol.flow.items()]


def test_solution_documents_take_the_one_format_path():
    sol = _unit_solution(1000)
    wrapped = {
        "flows": _flow_dicts(sol, Real),
        "node_energies": [Real(e) for e in sol.node_energies],
        "common_energy": Real(sol.common_energy),
    }
    assert json_dumps(solution_document(sol)) == json_dumps(wrapped)
    rows = [(i, j, Real(v)) for (i, j), v in sol.flow.items()]
    assert solution_csv(sol) == csv_text("from,to,amount", rows)


def test_solution_document_calls_do_not_grow_with_the_chain(monkeypatch):
    calls = []

    def counted(name):
        write = getattr(documents, name)

        def wrapper(*args):
            result = write(*args)
            calls.append((name, result is not None))
            return result
        monkeypatch.setattr(documents, name, wrapper)

    for name in ("_parts", "_float_run", "_flow_blocks", "_csv_line"):
        counted(name)
    seen = []
    for n in (100, 1000):
        sol = _unit_solution(n)
        calls.clear()
        json_dumps(solution_document(sol))
        solution_csv(sol)
        seen.append(sorted(calls))
    # the document, its flows and its node energies; the energies are one
    # float run, and each writer reads the flows' columns in one pass of
    # blocks, with no text or CSV line per flow
    assert seen[0] == seen[1]
    assert seen[0] == sorted(
        [("_parts", True)] * 3 + [("_float_run", True)] + [("_flow_blocks", True)] * 2
    )


def _reference_json(sol):
    """The JSON of a solution written value by value from per-flow dicts."""
    doc = {
        "flows": _flow_dicts(sol),
        "node_energies": [float(e) for e in sol.node_energies],
        "common_energy": float(sol.common_energy),
    }
    return item_by_item(json_dumps, doc)


def _reference_csv(sol):
    """The CSV of a solution written value by value from per-flow rows."""
    rows = [(i, j, v) for (i, j), v in sol.flow.items()]
    return item_by_item(csv_text, "from,to,amount", rows)


def _chain_mapping(sent, relays):
    """The (i, j) -> amount mapping of a walk's lists, far end first, unsorted."""
    n = len(sent) - 1
    mapping = {}
    for i in range(n, 1, -1):
        mapping[(i, i - 1)], mapping[(i, 0)] = relays[i], sent[i]
    mapping[(1, 0)] = sent[1]
    return mapping


# chain sizes around RUN and up to a few hundred nodes
chain_sizes = st.sampled_from([1, 2, RUN - 1, RUN, RUN + 1]) | st.integers(1, 300)
# amounts a walk may return: the clamp's range [-1e-9, 0), signed zeros and
# the subnormals next to them, and larger amounts of either sign
edge_amounts = st.sampled_from([-0.0, 0.0, -1e-9, -1.0000000000000002e-9, 5e-324, -5e-324])


@st.composite
def walk_lists(draw, edges=edge_amounts):
    """A walk's sent and relays lists: seeded amounts of three magnitudes, with
    drawn edge amounts put in at drawn places."""
    n = draw(chain_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranges = np.array([(-1e3, 1e3), (-1e-9, 0.0), (0.0, 1e-6)])[rng.integers(0, 3, 2 * n - 1)]
    amounts = rng.uniform(ranges[:, 0], ranges[:, 1]).tolist()
    for value in draw(st.lists(edges, max_size=6)):
        amounts[draw(st.integers(0, 2 * n - 2))] = value
    return [0.0] + amounts[:n], [0.0, 0.0] + amounts[n:]


def _exact(flow):
    """A flow's entries with the sign of each zero and the type of each value."""
    return [(key, repr(value), type(value)) for key, value in flow.items()]


@settings(max_examples=200, deadline=None)
@given(lists=walk_lists(edge_amounts | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_a_walk_builds_the_matrix_the_constructor_builds(lists):
    # entries, key order, the clamp and signed zeros, with a NaN or an infinity anywhere
    sent, relays = lists
    n = len(sent) - 1
    chain = FlowMatrix._of_chain(sent, relays)
    public = FlowMatrix(n, _chain_mapping(sent, relays))
    assert chain.n == public.n == n
    assert _exact(chain) == _exact(public)
    assert list(zip(*chain.columns())) == [(i, j, v) for (i, j), v in chain.items()]


@st.composite
def solutions(draw):
    """A solved random chain, shifted or not, or a walk's drawn amounts, as the
    walk's FlowMatrix or one the public constructor built, as the bench ladder does."""
    source = draw(st.sampled_from(["solve", "drawn"]))
    if source == "solve":
        n = draw(chain_sizes)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        volumes = tuple(float(v) for v in 1.0 + 0.5 * rng.random(n))
        shifts = (0.0,) * n
        if draw(st.booleans()):
            shifts = tuple(float(d) for d in rng.uniform(-0.3, 0.3, n))
        series = build_cost_series([(0.5, float(rng.uniform(1.0, 2.0))), (0.5, 2.5)])
        sol = solve_equal_energy(PerturbedNetwork(n, shifts, volumes, series), check_flows=False)
    else:
        sent, relays = draw(walk_lists())
        n = len(sent) - 1
        energies = tuple(draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)))
        sol = EqualEnergySolution(FlowMatrix._of_chain(sent, relays), energies, energies[0])
    if draw(st.booleans()):
        flow = FlowMatrix(n, dict(reversed(sol.flow.items())))
        sol = EqualEnergySolution(flow, sol.node_energies, sol.common_energy)
    return sol


@settings(max_examples=200, deadline=None)
@given(sol=solutions())
def test_solution_writers_match_the_value_by_value_path(sol):
    assert json_dumps(solution_document(sol)) == _reference_json(sol)
    assert solution_csv(sol) == _reference_csv(sol)


def test_an_empty_flow_is_written_as_the_value_by_value_path_writes_it():
    sol = EqualEnergySolution(FlowMatrix(2, {}), (0.0, 0.0), 0.0)
    assert json_dumps(solution_document(sol)) == _reference_json(sol)
    assert solution_csv(sol) == _reference_csv(sol) == "from,to,amount\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "n, lists, node", [(1, "sent", 1), (RUN, "sent", 1), (RUN, "relays", 2), (300, "relays", 300)]
)
def test_a_non_finite_flow_raises_on_the_column_path(bad, n, lists, node):
    walk = {"sent": [0.0] + [1.0] * n, "relays": [0.0, 0.0] + [0.5] * (n - 1)}
    walk[lists][node] = bad
    sent, relays = walk["sent"], walk["relays"]
    for flow in (FlowMatrix._of_chain(sent, relays), FlowMatrix(n, _chain_mapping(sent, relays))):
        sol = EqualEnergySolution(flow, (1.0,) * n, 1.0)
        writers = (lambda s: json_dumps(solution_document(s)), solution_csv)
        for write in (*writers, _reference_json, _reference_csv):
            with pytest.raises(ValueError, match="^documents only carry finite reals$"):
                write(sol)


# 9-row documents as the one-format run writers of dicts and CSV rows wrote
# them: stability-q with a NaN interior limit and the last node's null/inf,
# stability-d and a sweep whose last point lies outside
STABILITY_Q_JSON = """{
  "nodes": [
    {
      "node": 1,
      "q_min": 0,
      "q_max": 1.1428571428571428
    },
    {
      "node": 2,
      "q_min": 0,
      "q_max": 1.2857142857142856
    },
    {
      "node": 3,
      "q_min": 0,
      "q_max": 1.4285714285714286
    },
    {
      "node": 4,
      "q_min": 0,
      "q_max": null
    },
    {
      "node": 5,
      "q_min": 0,
      "q_max": 1.7142857142857144
    },
    {
      "node": 6,
      "q_min": 0,
      "q_max": 1.8571428571428572
    },
    {
      "node": 7,
      "q_min": 0,
      "q_max": 2
    },
    {
      "node": 8,
      "q_min": 0,
      "q_max": 2.1428571428571428
    },
    {
      "node": 9,
      "q_min": 0.16666666666666666,
      "q_max": null
    }
  ],
  "q_constraints_ok": true,
  "unit_region": false
}
"""
STABILITY_Q_CSV = """node,q_min,q_max
1,0,1.14285714286
2,0,1.28571428571
3,0,1.42857142857
4,0,
5,0,1.71428571429
6,0,1.85714285714
7,0,2
8,0,2.14285714286
9,0.166666666667,inf
"""
STABILITY_D_CSV = """node,env_lo,env_hi,num_lo,num_hi
1,-0.142857142857,0.111111111111,-0.166666666667,0.125
2,-0.0714285714286,0.0555555555556,-0.0833333333333,0.0625
3,-0.047619047619,0.037037037037,-0.0555555555556,0.0416666666667
4,-0.0357142857143,0.0277777777778,-0.0416666666667,0.03125
5,-0.0285714285714,0.0222222222222,-0.0333333333333,0.025
6,-0.0238095238095,0.0185185185185,-0.0277777777778,0.0208333333333
7,-0.0204081632653,0.015873015873,-0.0238095238095,0.0178571428571
8,-0.0178571428571,0.0138888888889,-0.0208333333333,0.015625
9,-0.015873015873,0.0123456790123,-0.0185185185185,0.0138888888889
"""
SWEEP_CSV = """param,common_energy,min_flow
-0.2,2.5,0.1
-0.15,2.83333333333,0.0857142857143
-0.1,3.16666666667,0.0714285714286
-0.05,3.5,0.0571428571429
0,3.83333333333,0.0428571428571
0.05,4.16666666667,0.0285714285714
0.1,4.5,0.0142857142857
0.15,4.83333333333,0
0.2,outside,-0.0142857142857
"""


def test_nine_row_documents_keep_their_bytes():
    q_rows = [(i, 0.0, 1.0 + i / 7) for i in range(1, 9)] + [(9, 0.5 / 3, None)]
    q_rows[3] = (4, 0.0, math.nan)
    assert json_dumps(stability_q_document(q_rows, True, False)) == STABILITY_Q_JSON
    assert stability_q_csv(q_rows) == STABILITY_Q_CSV
    d_rows = [
        (i, (-1 / (7 * i), 1 / (9 * i)), StabilityInterval(-1 / (6 * i), 1 / (8 * i)))
        for i in range(1, 10)
    ]
    assert stability_d_csv(d_rows) == STABILITY_D_CSV
    sweep_rows = [(-0.2 + 0.05 * k, 2.5 + k / 3, 0.1 - k / 70) for k in range(8)]
    assert sweep_csv(sweep_rows + [(0.2, None, -1 / 70)]) == SWEEP_CSV
