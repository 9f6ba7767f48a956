"""Flow-matrix checks: conservation, energies, loops, lifetime."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chainlife import (
    FlowMatrix,
    Positions,
    RegularNetwork,
    check_conservation,
    check_no_loop,
    conservation_ok,
    flow_closed_form,
    is_equal_energy,
    lifetime,
    node_energies,
    single_exponent_series,
    validation_report,
)

from helpers import random_feasible_flow


def test_flow_matrix_rejects_bad_indices():
    with pytest.raises(ValueError):
        FlowMatrix(2, {(3, 0): 1.0})
    with pytest.raises(ValueError):
        FlowMatrix(2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        FlowMatrix(0, {})


def test_flow_matrix_indices_are_ints():
    # numpy ints and bools are stored as int; a float index is rejected,
    # so that a document writes every index as an integer
    flow = FlowMatrix(2, {(np.int64(2), True): 0.5})
    assert flow.items() == [((2, 1), 0.5)]
    assert [type(k) for k in flow.items()[0][0]] == [int, int]
    with pytest.raises(ValueError, match="not a pair of integers"):
        FlowMatrix(2, {(1.5, 0): 1.0})


def test_flow_matrix_amount_reads_every_entry_and_zero_elsewhere():
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 12):
        flow = random_feasible_flow(rng, n, [1.0] * n)
        entries = dict(flow.items())
        for i in range(0, n + 2):
            for j in range(-1, n + 2):
                assert flow.amount(i, j) == entries.get((i, j), 0.0)
    assert FlowMatrix(3, {}).amount(1, 0) == 0.0


def test_flow_matrix_clamps_rounding_noise_only():
    flow = FlowMatrix(2, {(1, 0): 1.0, (2, 1): -5e-10, (2, 0): -0.25})
    assert flow.amount(2, 1) == 0.0
    assert flow.amount(2, 0) == -0.25
    assert flow.min_entry() == -0.25


def test_conservation_residuals():
    # node 2 forwards half its volume, node 1 passes everything on
    flow = FlowMatrix(2, {(1, 0): 1.5, (2, 0): 0.5, (2, 1): 0.5})
    residual = check_conservation(flow, (1.0, 1.0))
    assert np.allclose(residual, 0.0, atol=1e-15)
    assert conservation_ok(flow, (1.0, 1.0))
    short = FlowMatrix(2, {(1, 0): 1.0, (2, 0): 1.0, (2, 1): 0.5})
    assert not conservation_ok(short, (1.0, 1.0))
    # residual scale follows the largest volume
    assert conservation_ok(
        FlowMatrix(1, {(1, 0): 1e6 + 5e-4}), (1e6,), tol=1e-9
    )


def test_node_energies_and_equality():
    series = single_exponent_series(2.0)
    positions = Positions.regular(2)
    flow = FlowMatrix(2, {(1, 0): 1.75, (2, 0): 0.25, (2, 1): 0.75})
    energies = node_energies(flow, positions, series)
    assert energies == pytest.approx([1.75, 1.75], abs=1e-12)
    assert is_equal_energy(energies)
    assert not is_equal_energy([1.0, 1.1])
    # the spread is judged relative to |peak|, as after a solve
    assert is_equal_energy([-2.0, -2.0 - 1.5e-9])


def test_no_loop_detection():
    ok = FlowMatrix(3, {(3, 2): 1.0, (2, 1): 2.0, (1, 0): 3.0})
    assert check_no_loop(ok)
    loop = FlowMatrix(3, {(3, 2): 1.0, (2, 3): 0.5, (1, 0): 1.0})
    assert not check_no_loop(loop)


def test_lifetime_equal_energy_solution():
    net = RegularNetwork(3, (1.0,) * 3, single_exponent_series(2.0))
    sol = flow_closed_form(net)
    report = lifetime(sol.flow, net.positions(), net.series, [23.0, 23.0, 23.0])
    # common energy 23/9 per round
    assert report.lifetime == pytest.approx(9.0, rel=1e-12)


def test_lifetime_bottleneck_under_direct_routing():
    series = single_exponent_series(2.0)
    flow = FlowMatrix(3, {(1, 0): 1.0, (2, 0): 1.0, (3, 0): 1.0})
    report = lifetime(flow, Positions.regular(3), series, [9.0, 9.0, 9.0])
    assert report.lifetime == pytest.approx(1.0, rel=1e-12)
    assert report.bottleneck == 3
    assert report.per_node_energy == pytest.approx((1.0, 4.0, 9.0))


def test_lifetime_unbounded_when_nothing_is_sent():
    flow = FlowMatrix(2, {})
    report = lifetime(flow, Positions.regular(2), single_exponent_series(1.0), [1.0, 1.0])
    assert math.isinf(report.lifetime)
    assert report.bottleneck is None


def test_validation_report_document():
    net = RegularNetwork(2, (1.0, 1.0), single_exponent_series(2.0))
    sol = flow_closed_form(net)
    report = validation_report(sol.flow, net.positions(), net.series, net.volumes)
    assert report["conservation_max_residual"] < 1e-12
    assert report["equal_energy"] is True
    assert report["no_loop"] is True
    assert report["lifetime"] == pytest.approx(1.0 / 1.75, rel=1e-12)


def test_random_flows_conserve_by_construction():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        volumes = tuple(float(v) for v in rng.uniform(0.2, 2.0, size=n))
        flow = random_feasible_flow(rng, n, volumes)
        assert conservation_ok(flow, volumes, tol=1e-12)
        assert check_no_loop(flow)
        assert flow.min_entry() >= 0.0
