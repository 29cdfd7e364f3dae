import hashlib
import io
import math
import struct
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebint, chebval

from chensieve.ball import Ball
from chensieve.cli import main
from chensieve.errors import ConfigError, DomainError
from chensieve import sievefun
from chensieve.sievefun import (
    SieveFunctionSystem,
    _clenshaw,
    build_grid,
    eval_F1,
    eval_f1,
    get_system,
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
    with mpmath.workdps(40):
        for s in (0.0, 1.0, 2.0, 2.5, 3.0):
            b = eval_F1(s)
            truth = 2 * mpmath.exp(mpmath.euler) - s
            assert abs(mpmath.mpf(b.value) - truth) <= mpmath.mpf(b.radius), s
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
    system = get_system(12.0)
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
    system = get_system(12.0)
    f_vals = [system.f1(s).value for s in np.arange(2.0, 12.01, 0.25)]
    F_vals = [system.F1(s).value for s in np.arange(0.0, 12.01, 0.25)]
    assert all(v > 0.0 for v in f_vals)
    assert all(v > 0.0 for v in F_vals)
    assert all(a >= b - 1e-15 for a, b in zip(f_vals, f_vals[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(F_vals, F_vals[1:]))
    assert system.F1(12.0).value < system.F1(6.0).value < system.F1(4.0).value


def test_against_step_doubled_integrator():
    for s_target, tol in [(4.0, 1e-9), (5.0, 1e-8), (6.0, 1e-8)]:
        oracle = dde_oracle_value("f1", s_target)
        assert abs(eval_f1(s_target).value - oracle) < tol
        oracle = dde_oracle_value("F1", s_target)
        assert abs(eval_F1(s_target).value - oracle) < tol


# -- proven radii -----------------------------------------------------------------


def test_closed_forms_contained_on_2_to_4():
    # f1(s) = s - 2e^gamma log(s-1) on [2, 4]; on [3, 4],
    # F1(s) = 2e^gamma (1 + G(s-1) - G(2)) - s with G(u) = log^2(u)/2 + Li2(1/u),
    # as G'(u) = log(u-1)/u.  Each node is checked in 40-digit arithmetic.
    grid = build_grid(4.0, 1e-3)
    columns = (grid.s, grid.f1_values, grid.f1_radii, grid.F1_values, grid.F1_radii)
    with mpmath.workdps(40):
        two_eg = 2 * mpmath.exp(mpmath.euler)

        def G(u):
            return mpmath.log(u) ** 2 / 2 + mpmath.polylog(2, 1 / u)

        G2 = G(mpmath.mpf(2))
        checked = 0
        for s, f1, f1_r, F1, F1_r in zip(*(c.tolist() for c in columns)):
            ms = mpmath.mpf(s)
            if s >= 2.0:
                assert abs(f1 - (ms - two_eg * mpmath.log(ms - 1))) <= f1_r, s
                checked += 1
            if s >= 3.0:
                assert abs(F1 - (two_eg * (1 + G(ms - 1) - G2) - ms)) <= F1_r, s
    assert checked == 2001


def test_every_radius_at_most_1e_9():
    grid = build_grid(12.0, 1e-3)
    for radii in (grid.f1_radii, grid.F1_radii):
        assert np.all((radii >= 0.0) & (radii <= 1e-9))


def _exact_chebyshev_sum(coef, x: Fraction) -> Fraction:
    total, t_prev, t = Fraction(0), Fraction(1), x
    for j, c in enumerate(coef.tolist()):
        if j == 0:
            total += Fraction(c)
            continue
        total += Fraction(c) * t
        t_prev, t = t, 2 * x * t - t_prev
    return total


def _poly(piece) -> Chebyshev:
    """numpy's own class on a piece's coefficients, the oracle of its values."""
    return Chebyshev(piece.coef, domain=[piece.lo, piece.hi])


def test_clenshaw_rounding_bound_holds_on_every_piece():
    # E(c) bounds the float value of each piece against the exact polynomial
    # of its float coefficients, at random points and at both ends.
    system = get_system(12.0)
    rng = np.random.default_rng(13)
    for piece in system._f1_pieces[1:] + system._F1_pieces[1:]:
        bound = _clenshaw(piece.coef)
        assert piece.error == bound
        points = [piece.lo, piece.hi] + rng.uniform(piece.lo, piece.hi, 12).tolist()
        for s in points:
            x = Fraction(2 * s) - (2 * int(piece.lo) + 1)
            got = float(_poly(piece)(s))
            assert abs(Fraction(got) - _exact_chebyshev_sum(piece.coef, x)) <= bound, s


# sha256 of every piece, seeds included, f1's then F1's, each as its lo, hi,
# coefficients and radius in little-endian float64.  Computed while each piece
# was still a `numpy.polynomial.Chebyshev` (its `.coef` hashed), before the
# march ran on bare coefficient arrays: the rewrite keeps every bit.
_PINNED_PIECES = {
    3.0: "afe286656e9e7ee8b956302f46aefa780eed0cf5a522c37909dfb1f539c1ab3c",
    4.0: "ebf0c270d83dd5873fee6423bc9f6637d305fb1bf05959f47898da32542a188f",
    8.2: "e9cdb3beec1df51a7707a4f64f52a051ca4356289f5d3c333509b28103e8070e",
    12.0: "d616ddcc64bd1288d2c617c95813857958275b4413bb7eb0f147875b80cb561c",
}


@pytest.mark.parametrize("s_max", list(_PINNED_PIECES))
def test_pieces_pinned(s_max):
    system = SieveFunctionSystem(s_max)
    digest = hashlib.sha256()
    for piece in system._f1_pieces + system._F1_pieces:
        digest.update(struct.pack("<dd", piece.lo, piece.hi))
        digest.update(np.asarray(piece.coef, dtype="<f8").tobytes())
        digest.update(struct.pack("<d", piece.radius))
    assert digest.hexdigest() == _PINNED_PIECES[s_max]


def test_bare_steps_match_numpy_bit_for_bit():
    """The march's bare-array steps against the `numpy.polynomial` functions
    they stand for, on random series whose coefficients span 24 decades."""
    rng = np.random.default_rng(25)
    for n in (2, 3, 49, 50):
        for _ in range(200):
            c = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 4, n)
            assert sievefun._integ(c).tobytes() == chebint(c, lbnd=-1.0, scl=0.5).tobytes()
            x = float(rng.uniform(-1.0, 1.0))
            assert sievefun._value(c.tolist(), x) == chebval(x, c)
            lo = float(rng.integers(0, 12))
            piece = sievefun._Piece(lo, lo + 1.0, c, 0.0, 0.0)
            s = np.concatenate([[lo, lo + 1.0], rng.uniform(lo, lo + 1.0, 30)])
            assert sievefun._values(piece, s).tobytes() == _poly(piece)(s).tobytes()


# -- grid ---------------------------------------------------------------------------


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        build_grid(5.0, 1e-5)
    with pytest.raises(ConfigError):
        build_grid(5.0, 0.5)
    with pytest.raises(ConfigError):
        build_grid(42.0, 1e-3)


def _node(grid, s: float) -> int:
    """Index of the grid node at s (within rounding of k * step)."""
    i = int(np.argmin(np.abs(grid.s - s)))
    assert abs(grid.s[i] - s) < 1e-9
    return i


def test_grid_nodes_match_evaluator():
    grid = build_grid(5.0, 1e-3)
    direct = eval_f1(4.0, s_max=5.0)
    i = _node(grid, 4.0)
    node = Ball(float(grid.f1_values[i]), float(grid.f1_radii[i]))
    assert abs(node.value - direct.value) <= node.radius + direct.radius


def test_grid_F1_closed_form_node():
    grid = build_grid(5.0, 1e-3)
    i = _node(grid, 2.5)
    v, r, s = (float(c[i]) for c in (grid.F1_values, grid.F1_radii, grid.s))
    with mpmath.workdps(40):
        truth = 2 * mpmath.exp(mpmath.euler) - s
        assert abs(mpmath.mpf(v) - truth) <= mpmath.mpf(r)


def test_grid_f1_at_6_against_oracle():
    grid = build_grid(6.0, 1e-3)
    oracle = dde_oracle_value("f1", 6.0)
    assert abs(grid.f1_values[_node(grid, 6.0)] - oracle) < 1e-8


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


def test_grid_csv_export(capsys):
    assert main(["sievefun", "--s-max", "4", "--step", "0.05"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    grid = build_grid(4.0, 0.05)
    assert lines[0] == "s,f1,f1_radius,F1,F1_radius"
    assert len(lines) == len(grid) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.05)
    # 17 significant digits survive a round trip
    assert float(first[3]) == grid.F1_values[0]


def _grid_csv_per_row(grid) -> str:
    """The grid CSV as it was written before it went through `cli.write_csv`:
    every cell of every row formatted with `%.17g`."""
    columns = (grid.s, grid.f1_values, grid.f1_radii, grid.F1_values, grid.F1_radii)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return "s,f1,f1_radius,F1,F1_radius\n" + "".join(
        map(row.__mod__, zip(*(c.tolist() for c in columns)))
    )


@pytest.mark.parametrize("s_max, step", [("8.2", "1e-3"), ("11.7", "1e-3"), ("8.2", "5e-4")])
def test_sievefun_csv_matches_per_row_writer(capsys, s_max, step):
    assert main(["sievefun", "--s-max", s_max, "--step", step]) == 0
    assert capsys.readouterr().out == _grid_csv_per_row(build_grid(float(s_max), float(step)))


# -- vectorized tabulation against the per-node loop ----------------------------------


def _old_find(pieces, s):
    for piece in pieces:
        if piece.lo <= s <= piece.hi:
            return piece
    return pieces[-1]


def _per_node(system, s):
    """One node as `build_grid` evaluated it node by node: a linear search
    for the first piece with lo <= s <= hi and a scalar call of numpy's
    `Chebyshev` on its coefficients.  Returns (f1, f1 radius, F1, F1 radius)."""

    def f1(s):
        if s <= 2.0:
            return float(s), 0.0
        piece = _old_find(system._f1_pieces[1:], s)
        return float(_poly(piece)(s)), piece.radius

    def F1(s):
        if s <= 3.0:
            return system._two_eg - s, system._F1_pieces[0].radius
        piece = _old_find(system._F1_pieces[1:], s)
        return float(_poly(piece)(s)), piece.radius

    return (*f1(s), *F1(s))


_GRID_COLUMNS = ("f1_values", "f1_radii", "F1_values", "F1_radii")


@pytest.mark.parametrize(
    "s_max, step", [(3.0, 1e-3), (4.0, 0.05), (8.137, 7e-4), (12.0, 1e-3)]
)
def test_grid_matches_per_node_loop(s_max, step):
    grid = build_grid(s_max, step)
    system = get_system(s_max)
    expect = np.array([_per_node(system, float(s)) for s in grid.s]).T
    for name, column in zip(_GRID_COLUMNS, expect):
        got = getattr(grid, name)
        assert got.dtype == np.float64
        assert np.array_equal(got, column), name
    if step == 1e-3:
        # every integer up to s_max is a node, including the s = 1 zero of s - 1
        assert set(range(1, int(s_max) + 1)) <= set(grid.s.tolist())


def test_array_evaluators_at_piece_edges():
    system = get_system(12.0)
    points = sorted(
        {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
        | {math.nextafter(float(k), d) for k in range(1, 13) for d in (0.0, 13.0)}
        | {float(k) for k in range(1, 13)}
    )
    points = np.array([s for s in points if s <= 12.0])
    expect = np.array([_per_node(system, float(s)) for s in points]).T
    got = (*system.f1_array(points), *system.F1_array(points))
    for name, g, e in zip(_GRID_COLUMNS, got, expect):
        assert np.array_equal(g, e), name
    for s, row in zip(points.tolist(), expect.T):
        assert system.f1(s) == Ball(row[0], row[1])
        assert system.F1(s) == Ball(row[2], row[3])


def test_array_evaluator_domain_errors():
    system = get_system(5.0)
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


def test_F1_seed_covers_its_own_subtraction(monkeypatch):
    """With e^gamma a zero-radius Ball, 2 e^gamma may be anything in the Ball
    2.0 * e^gamma makes; F1 on [0, 3] must hold 2 e^gamma - s for each, so its
    radius covers the rounding of the float two_eg - s too."""
    x = sievefun.exp_gamma_ball().value
    monkeypatch.setattr(sievefun, "exp_gamma_ball", lambda: Ball(x, 0.0))
    two_eg = Ball(x, 0.0) * 2.0
    s = np.concatenate([np.linspace(0.0, 3.0, 3001), np.arange(1, 3001) * 1e-3])
    value, radius = SieveFunctionSystem(3.0).F1_array(s)
    with mpmath.workdps(40):
        for si, v, r in zip(s.tolist(), value.tolist(), radius.tolist()):
            for sign in (-1, 1):  # the ends of the Ball two_eg, exactly
                exact = mpmath.mpf(two_eg.value) + sign * mpmath.mpf(two_eg.radius) - si
                assert abs(exact - mpmath.mpf(v)) <= mpmath.mpf(r), si
