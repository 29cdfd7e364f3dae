import io
import math
import warnings

import numpy as np
import pytest

from chensieve.ball import Ball
from chensieve.cli import main
from chensieve.errors import ConfigError, DomainError
from chensieve.sievefun import (
    SieveFunctionSystem,
    build_grid,
    eval_F1,
    eval_f1,
    get_system,
    write_grid_csv,
)

# Independent high-precision seed for the oracles below.
GAMMA_ORACLE = 0.5772156649015328606065120900824
TWO_EG = 2.0 * math.exp(GAMMA_ORACLE)


def dde_oracle(s_max: float, n_per_unit: int):
    """Method-of-steps oracle on a uniform grid: cumulative trapezoid with
    the delay handled by exact index shifts.  Returns (s, f1, F1) arrays.
    Completely independent of the package's Chebyshev/Kronrod machinery.
    """
    n_total = int(round(s_max * n_per_unit))
    h = 1.0 / n_per_unit
    s = np.arange(n_total + 1) * h
    f1 = np.where(s <= 2.0, s, 0.0)
    F1 = np.where(s <= 3.0, TWO_EG - s, 0.0)
    i2, i3 = 2 * n_per_unit, 3 * n_per_unit
    d = n_per_unit  # delay of exactly one unit
    for i in range(1, n_total + 1):
        if i > i2:
            g0 = F1[i - 1 - d] / (s[i - 1] - 1.0)
            g1 = F1[i - d] / (s[i] - 1.0)
            f1[i] = f1[i - 1] - 0.5 * h * (g0 + g1)
        if i > i3:
            g0 = f1[i - 1 - d] / (s[i - 1] - 1.0)
            g1 = f1[i - d] / (s[i] - 1.0)
            F1[i] = F1[i - 1] - 0.5 * h * (g0 + g1)
    return s, f1, F1


def dde_oracle_value(which: str, s_target: float, n_per_unit: int = 512) -> float:
    """Richardson-extrapolated (h^4) oracle value at a grid-aligned point."""
    vals = []
    for n in (n_per_unit, 2 * n_per_unit):
        s, f1, F1 = dde_oracle(math.ceil(s_target), n)
        i = int(round(s_target * n))
        assert abs(s[i] - s_target) < 1e-12
        vals.append(f1[i] if which == "f1" else F1[i])
    return (4.0 * vals[1] - vals[0]) / 3.0


# -- closed forms -----------------------------------------------------------------


def test_f1_boundary_segment():
    assert eval_f1(2.0).value == 2.0
    assert eval_f1(0.5).value == 0.5
    assert eval_f1(2.0).radius == 0.0


def test_F1_closed_form_segment():
    for s in (0.0, 1.0, 2.0, 2.5, 3.0):
        b = eval_F1(s)
        assert abs(b.value - (TWO_EG - s)) <= b.radius + 1e-14
        assert b.radius <= 1e-12


def test_f1_at_3_closed_form():
    # f1(3) = 3 - 2 e^gamma log 2 via the antiderivative of the linear segment
    b = eval_f1(3.0)
    assert abs(b.value - (3.0 - TWO_EG * math.log(2.0))) < 1e-9


def test_f1_keystone_at_4():
    b = eval_f1(4.0)
    expect = 4.0 - TWO_EG * math.log(3.0)
    assert abs(b.value - expect) < 1e-9
    assert b.value < 0.0866
    assert b.value + b.radius < 0.0866


def test_F1_at_4_closed_form():
    # F1(4) = 2 e^gamma (1 + int_2^3 log(t-1)/t dt) - 4; Simpson oracle
    n = 20000
    h = 1.0 / n
    f = lambda t: math.log(t - 1.0) / t
    xs = [2.0 + i * h for i in range(n + 1)]
    total = f(xs[0]) + f(xs[-1]) + 4.0 * math.fsum(
        f(x) for x in xs[1:-1:2]
    ) + 2.0 * math.fsum(f(x) for x in xs[2:-1:2])
    expect = TWO_EG * (1.0 + total * h / 3.0) - 4.0
    b = eval_F1(4.0)
    assert abs(b.value - expect) < 1e-9


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_f1(0.0)
    with pytest.raises(DomainError):
        eval_f1(-1.0)
    with pytest.raises(DomainError):
        eval_F1(-0.1)
    with pytest.raises(DomainError):
        eval_f1(12.5)
    with pytest.raises(ConfigError):
        SieveFunctionSystem(s_max=20.0)


# -- delay relations and shape ------------------------------------------------------


def test_derivative_relation_via_finite_differences():
    system = get_system(12.0, 1e-12)
    h = 1e-3
    points = np.linspace(3.0 + 2 * h, 12.0 - 2 * h, 200)
    worst_f1 = worst_F1 = 0.0
    for s in points:
        s = float(s)
        fd = (system.f1(s + h).value - system.f1(s - h).value) / (2 * h)
        target = -system.F1(s - 1.0).value / (s - 1.0)
        worst_f1 = max(worst_f1, abs(fd - target))
        fd = (system.F1(s + h).value - system.F1(s - h).value) / (2 * h)
        target = -system.f1(s - 1.0).value / (s - 1.0)
        worst_F1 = max(worst_F1, abs(fd - target))
    # centered differences are O(h^2); 25 bounds max|f'''|/6 comfortably
    assert worst_f1 <= 25.0 * h * h
    assert worst_F1 <= 25.0 * h * h


def test_positive_and_nonincreasing():
    system = get_system(12.0, 1e-12)
    f_vals = [system.f1(s).value for s in np.arange(2.0, 12.01, 0.25)]
    F_vals = [system.F1(s).value for s in np.arange(0.0, 12.01, 0.25)]
    assert all(v > 0.0 for v in f_vals)
    assert all(v > 0.0 for v in F_vals)
    assert all(a >= b - 1e-15 for a, b in zip(f_vals, f_vals[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(F_vals, F_vals[1:]))
    assert system.F1(12.0).value < system.F1(6.0).value < system.F1(4.0).value


def test_ball_honesty_under_tighter_tolerance():
    loose = SieveFunctionSystem(12.0, tol=1e-9)
    tight = SieveFunctionSystem(12.0, tol=1e-10)
    for s in (3.5, 4.0, 5.25, 7.5, 11.0, 12.0):
        lb = loose.f1(s)
        assert abs(tight.f1(s).value - lb.value) <= lb.radius
        lb = loose.F1(s)
        assert abs(tight.F1(s).value - lb.value) <= lb.radius


def test_against_step_doubled_integrator():
    for s_target, tol in [(4.0, 1e-9), (5.0, 1e-8), (6.0, 1e-8)]:
        oracle = dde_oracle_value("f1", s_target)
        assert abs(eval_f1(s_target).value - oracle) < tol
        oracle = dde_oracle_value("F1", s_target)
        assert abs(eval_F1(s_target).value - oracle) < tol


# -- grid ---------------------------------------------------------------------------


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        build_grid(5.0, 1e-5)
    with pytest.raises(ConfigError):
        build_grid(5.0, 0.5)
    with pytest.raises(ConfigError):
        build_grid(42.0, 1e-3)


def test_grid_nodes_match_evaluator():
    grid = build_grid(5.0, 1e-3)
    direct = eval_f1(4.0, s_max=5.0)
    node = grid.f1_at(4.0)
    assert abs(node.value - direct.value) <= node.radius + direct.radius


def test_grid_F1_closed_form_node():
    grid = build_grid(5.0, 1e-3)
    b = grid.F1_at(2.5)
    assert abs(b.value - (TWO_EG - 2.5)) <= b.radius + 1e-14


def test_grid_f1_at_6_against_oracle():
    grid = build_grid(6.0, 1e-3)
    oracle = dde_oracle_value("f1", 6.0)
    assert abs(grid.f1_at(6.0).value - oracle) < 1e-8


def test_grid_invariants():
    grid = build_grid(6.0, 5e-3)
    s = grid.s
    in_closed = (s >= 0.0) & (s <= 3.0)
    assert np.allclose(
        grid.F1_values[in_closed], TWO_EG - s[in_closed], atol=1e-12
    )
    past2 = s >= 2.0
    diffs = np.diff(grid.f1_values[past2])
    assert np.all(diffs <= 1e-15)
    assert np.all(np.diff(grid.F1_values) <= 1e-15)
    assert np.all(grid.f1_values > 0.0)
    assert np.all(grid.F1_values > 0.0)


def test_grid_interpolation_honest_between_nodes():
    grid = build_grid(6.0, 1e-3)
    system = get_system(6.0, 1e-12)
    rng = np.random.default_rng(7)
    for s in rng.uniform(grid.s_min, grid.s_max, 200):
        s = float(s)
        gb = grid.f1_at(s)
        assert abs(gb.value - system.f1(s).value) <= gb.radius
        gb = grid.F1_at(s)
        assert abs(gb.value - system.F1(s).value) <= gb.radius


def test_grid_csv_export():
    grid = build_grid(4.0, 0.05)
    buf = io.StringIO()
    write_grid_csv(grid, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "s,f1,f1_radius,F1,F1_radius"
    assert len(lines) == len(grid) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.05)
    # 17 significant digits survive a round trip
    assert float(first[3]) == grid.F1_values[0]


# -- vectorized tabulation against the per-node loop ----------------------------------


def _old_find(pieces, s):
    for piece in pieces:
        if piece.lo <= s <= piece.hi:
            return piece
    return pieces[-1]


def _per_node(system, s):
    """One node as `build_grid` evaluated it node by node: a linear search
    for the first piece with lo <= s <= hi, a scalar Chebyshev call, and the
    delay-relation slopes from the values at s - 1.  Returns (f1, f1 radius,
    F1, F1 radius, f1' right, f1' left, F1' right, F1' left)."""

    def f1(s):
        if s <= 2.0:
            return float(s), 0.0
        piece = _old_find(system._f1_pieces[1:], s)
        return float(piece.poly(s)), piece.radius

    def F1(s):
        if s <= 3.0:
            return system._two_eg - s, system._F1_pieces[0].radius
        piece = _old_find(system._F1_pieces[1:], s)
        return float(piece.poly(s)), piece.radius

    return (
        *f1(s),
        *F1(s),
        1.0 if s < 2.0 else -F1(s - 1.0)[0] / (s - 1.0),
        1.0 if s <= 2.0 else -F1(s - 1.0)[0] / (s - 1.0),
        -1.0 if s < 3.0 else -f1(s - 1.0)[0] / (s - 1.0),
        -1.0 if s <= 3.0 else -f1(s - 1.0)[0] / (s - 1.0),
    )


_GRID_COLUMNS = (
    "f1_values",
    "f1_radii",
    "F1_values",
    "F1_radii",
    "f1_slopes_right",
    "f1_slopes_left",
    "F1_slopes_right",
    "F1_slopes_left",
)


@pytest.mark.parametrize(
    "s_max, step", [(3.0, 1e-3), (4.0, 0.05), (8.137, 7e-4), (12.0, 1e-3)]
)
def test_grid_matches_per_node_loop(s_max, step):
    grid = build_grid(s_max, step)
    system = get_system(s_max, 1e-12)
    expect = np.array([_per_node(system, float(s)) for s in grid.s]).T
    for name, column in zip(_GRID_COLUMNS, expect):
        got = getattr(grid, name)
        assert got.dtype == np.float64
        assert np.array_equal(got, column), name
    if step == 1e-3:
        # every integer up to s_max is a node, including the s = 1 zero of s - 1
        assert set(range(1, int(s_max) + 1)) <= set(grid.s.tolist())


def test_array_evaluators_at_piece_edges():
    system = get_system(12.0, 1e-12)
    points = sorted(
        {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
        | {math.nextafter(float(k), d) for k in range(1, 13) for d in (0.0, 13.0)}
        | {float(k) for k in range(1, 13)}
    )
    points = np.array([s for s in points if s <= 12.0])
    expect = np.array([_per_node(system, float(s)) for s in points]).T
    f1_v, f1_r = system.f1_array(points)
    F1_v, F1_r = system.F1_array(points)
    got = (
        f1_v,
        f1_r,
        F1_v,
        F1_r,
        system.f1_deriv_array(points, "right"),
        system.f1_deriv_array(points, "left"),
        system.F1_deriv_array(points, "right"),
        system.F1_deriv_array(points, "left"),
    )
    for name, g, e in zip(_GRID_COLUMNS, got, expect):
        assert np.array_equal(g, e), name
    for s, row in zip(points.tolist(), expect.T):
        assert system.f1(s) == Ball(row[0], row[1])
        assert system.F1(s) == Ball(row[2], row[3])
        assert system.f1_deriv(s, "right") == row[4]
        assert system.f1_deriv(s, "left") == row[5]
        assert system.F1_deriv(s, "right") == row[6]
        assert system.F1_deriv(s, "left") == row[7]


def test_array_evaluator_domain_errors():
    system = get_system(5.0, 1e-12)
    with pytest.raises(DomainError):
        system.f1_array(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        system.f1_array(np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        system.F1_array(np.array([-0.1, 1.0]))
    with pytest.raises(DomainError):
        system.F1_array(np.array([5.0, 5.5]))


@pytest.mark.parametrize("s_max, step", [(3.0, 1e-3), (4.0, 0.05), (12.0, 1e-3)])
def test_sievefun_cli_warning_free(s_max, step, capsys):
    get_system.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sievefun", "--s-max", str(s_max), "--step", str(step)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == len(build_grid(s_max, step)) + 1
