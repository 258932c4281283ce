"""Bessel kernels and closed-form modal solutions.

Reference values were computed once with mpmath at 40 significant
digits and are frozen here; only the rays near the branch cut are
compared with mpmath at run time.  The remaining checks are structural
(Wronskians, connection formulas, quadrature cross-checks, ODE
residuals) so they do not share code paths with the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagdyn import special, spectral
from nagdyn.errors import DomainError, OverflowSaturation

# (function, argument, frozen mpmath value)
ORACLE_REAL = [
    (special.bessel_j0, 1.0, 0.76519768655796655),
    (special.bessel_j1, 1.0, 0.44005058574493352),
    (special.bessel_y0, 1.0, 0.088256964215676958),
    (special.bessel_y1, 1.0, -0.78121282130028872),
    # |z| = 20 sits at the series/asymptotic handover where the plain
    # double series loses ~7 digits to cancellation; these pin the
    # compensated summation.
    (special.bessel_j1, 20.0, 0.066833124175850046),
    (special.bessel_y1, 20.0, -0.1655116143625213),
    (special.bessel_j1, 25.0, -0.1253502495802899),
    (special.bessel_y0, 25.0, -0.12724943226800614),
]

ORACLE_MODIFIED = [
    (special.bessel_i1, 1.0, 0.56515910399248503),
    (special.bessel_k1, 1.0, 0.60190723019723457),
    (special.bessel_i0, 3.0, 4.8807925858650241),
    (special.bessel_k0, 3.0, 0.034739504386279248),
    (special.bessel_i1, 10.0, 2670.9883037012547),
    (special.bessel_k1, 5.0, 0.0040446134454521642),
    (special.bessel_k1, 10.0, 1.8648773453825585e-5),
    (special.bessel_i1, 30.0, 768532038938.957),
    (special.bessel_k0, 30.0, 2.1324774964630564e-14),
]

ORACLE_COMPLEX = [
    (special.bessel_j1, 2 + 3j, 3.7806829613712999 - 0.81278094107357802j),
    (special.bessel_y1, 2 + 3j, 0.79650209663005479 + 3.7648887303516911j),
    (special.bessel_j0, 2 + 3j, -0.46951719204407019 - 4.3137884094689224j),
    (special.bessel_j1, 8 + 15j, 308892.952365344 + 27254.570272740683j),
    (special.bessel_y1, 8 + 15j, -27254.570272796238 + 308892.95236532046j),
    (special.bessel_j1, 30 + 4j, -3.3675679074605286 - 2.072117384656053j),
    (special.bessel_y0, 30 + 4j, -3.3394143768296064 - 2.1312472325599456j),
]


@pytest.mark.parametrize("fn,x,expected", ORACLE_REAL)
def test_oscillatory_oracle_real(fn, x, expected):
    got = fn(x)
    assert abs(got.imag) <= 1e-15 * max(1.0, abs(expected))
    assert abs(got.real - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("fn,x,expected", ORACLE_MODIFIED)
def test_modified_oracle(fn, x, expected):
    assert math.isclose(fn(x), expected, rel_tol=1e-13)


@pytest.mark.parametrize("fn,z,expected", ORACLE_COMPLEX)
def test_oscillatory_oracle_complex(fn, z, expected):
    assert abs(fn(z) - expected) <= 1e-12 * abs(expected)


def test_j_at_zero():
    assert special.bessel_j0(0.0) == 1.0 + 0.0j
    assert special.bessel_j1(0.0) == 0.0 + 0.0j


def test_j1_quadrature_cross_check():
    # J1(x) = (1/pi) \int_0^pi cos(theta - x sin theta) dtheta
    # (Bessel's integral), evaluated with Gauss-Legendre nodes: an
    # independent route that shares nothing with the series/asymptotic
    # implementation.
    nodes, weights = np.polynomial.legendre.leggauss(200)
    theta = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    for x in (0.5, 1.0, 5.0, 10.0, 19.0, 23.0):
        quad = float(np.sum(w * np.cos(theta - x * np.sin(theta)))) / math.pi
        assert abs(complex(special.bessel_j1(x)) - quad) <= 1e-12


def _jy_wronskian_defect(z: complex) -> float:
    j0, j1 = special.bessel_j0(z), special.bessel_j1(z)
    y0, y1 = special.bessel_y0(z), special.bessel_y1(z)
    # C1'(z) = C0(z) - C1(z)/z for both kinds
    wron = j1 * (y0 - y1 / z) - (j0 - j1 / z) * y1
    target = 2.0 / (math.pi * z)
    return abs(wron - target) / abs(target)


def test_jy_wronskian_real_axis():
    for x in np.linspace(0.1, 50.0, 120):
        assert _jy_wronskian_defect(complex(x)) <= 1e-10, f"x = {x}"


def test_jy_wronskian_complex_plane():
    # The identity subtracts products of size ~ e^{2|Im z|}, so plain
    # doubles hold 1e-10 only for |Im z| <= ~5; the grid respects that
    # while still crossing the series/asymptotic handover and reaching
    # behind the imaginary axis (off the cut).
    res, ims = (0.3, 1.0, 4.0, 12.0, 19.5, 21.0, 30.0), (-4.5, -1.0, 0.0, 1.5, 4.5)
    for re in res:
        for im in ims:
            for z in (complex(re, im), complex(-re, im)):
                if z.real < 0 and abs(z.imag) < 0.3:
                    continue  # too close to the cut
                assert _jy_wronskian_defect(z) <= 1e-10, f"z = {z}"


def test_jy_wronskian_large_imaginary():
    # Beyond |Im z| ~ 5 the achievable accuracy degrades like
    # eps * e^{2 Im z}; check against that envelope rather than a fixed
    # tolerance.
    for z in (10 + 8j, 25 + 10j, 4 + 12j, -9 + 9j):
        budget = 200.0 * 2.2e-16 * math.exp(2.0 * abs(z.imag))
        assert _jy_wronskian_defect(z) <= budget, f"z = {z}"


def test_ik_wronskian():
    # I1 K1' - I1' K1 = -1/x, scaled by x so the tolerance is relative
    for x in np.linspace(0.1, 30.0, 90):
        i0, i1 = special.bessel_i0(x), special.bessel_i1(x)
        k0, k1 = special.bessel_k0(x), special.bessel_k1(x)
        wron = i1 * (-k0 - k1 / x) - (i0 - i1 / x) * k1
        assert abs(wron + 1.0 / x) * x <= 1e-10, f"x = {x}"


def test_connection_formula_j_to_i():
    # J1(ix) = i I1(x): ties the two implementations together
    for x in np.linspace(0.25, 20.0, 40):
        lhs = special.bessel_j1(complex(0.0, x))
        rhs = 1j * special.bessel_i1(x)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_jy_near_the_cut_matches_mpmath():
    # rays at |arg z| = 2.5..3.1 beyond the handover radius, where the
    # Hankel form alone misses the subdominant exponential (up to 0.36
    # relative error at arg 3.1) and the reflection from -z is needed
    import mpmath

    pairs = [
        (special.bessel_j0, mpmath.besselj, 0),
        (special.bessel_j1, mpmath.besselj, 1),
        (special.bessel_y0, mpmath.bessely, 0),
        (special.bessel_y1, mpmath.bessely, 1),
    ]
    for ang in np.linspace(2.5, 3.1, 7):
        for sign in (1.0, -1.0):
            for r in np.linspace(20.5, 40.0, 14):
                z = r * complex(math.cos(ang), sign * math.sin(ang))
                for fn, ref, order in pairs:
                    with mpmath.workdps(20):
                        want = complex(ref(order, mpmath.mpc(z.real, z.imag)))
                    assert abs(fn(z) - want) <= 1e-13 * abs(want), f"{fn.__name__}({z})"


def test_series_asymptotic_handover_band():
    for r in np.linspace(15.0, 25.0, 11):
        for ang in (0.0, 0.9, -1.3, 2.2):
            z = np.array([r * complex(math.cos(ang), math.sin(ang))])
            series = special._jy01_series(z)
            asym = special._jy01_asymptotic(z)
            for s, a in zip(series, asym):
                assert abs(s[0] - a[0]) <= 1e-8 * max(1.0, abs(s[0]))


@given(
    st.floats(min_value=0.2, max_value=28.0),
    st.floats(min_value=-4.5, max_value=4.5),
)
@settings(max_examples=60, deadline=None)
def test_jy_wronskian_property(re, im):
    assert _jy_wronskian_defect(complex(re, im)) <= 1e-10


def _either_side(x: float) -> list[float]:
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# Regime edges: the J/Y series/Hankel handover at |z| = 20 on and off the
# real axis (|12 + 16i| = 20 exactly; the off-axis neighbours move Im z by
# one ulp), the K series/quadrature/asymptotic edges at x = 2 and x = 20,
# and the I series/asymptotic edge at x = 20 up to the cap x = 700.
JY_EDGES = [complex(x) for x in _either_side(20.0)] + [
    complex(re, im) for re in (12.0, -12.0) for im in _either_side(16.0)
]
K_EDGES = _either_side(2.0) + _either_side(20.0)
I_EDGES = _either_side(20.0) + _either_side(700.0)[:2]

REGIME_EDGE_CASES = [
    (special.bessel_j0, special._jy01, 0, JY_EDGES),
    (special.bessel_j1, special._jy01, 1, JY_EDGES),
    (special.bessel_y0, special._jy01, 2, JY_EDGES),
    (special.bessel_y1, special._jy01, 3, JY_EDGES),
    (special.bessel_i0, special._i01, 0, I_EDGES),
    (special.bessel_i1, special._i01, 1, I_EDGES),
    (special.bessel_k0, special._k01, 0, K_EDGES),
    (special.bessel_k1, special._k01, 1, K_EDGES),
]


@pytest.mark.parametrize(
    "fn,evaluator,index,points", REGIME_EDGE_CASES, ids=[c[0].__name__ for c in REGIME_EDGE_CASES]
)
def test_scalar_matches_array_evaluator_at_regime_edges(fn, evaluator, index, points):
    # The public scalar functions and the array evaluators share one regime
    # dispatch; either side of every handover they must agree.
    if evaluator is special._jy01:
        radii = np.abs(np.array(points)).reshape(-1, 3)  # below, on, above |z| = 20
        assert np.all(radii[:, 0] < special.SERIES_RADIUS)
        assert np.all(radii[:, 1] == special.SERIES_RADIUS)
        assert np.all(radii[:, 2] > special.SERIES_RADIUS)
    values = evaluator(np.array(points))[index]
    for point, value in zip(points, values):
        got = fn(point)
        assert type(got) is (complex if evaluator is special._jy01 else float)
        assert abs(got - value) <= 1e-15 * abs(value), f"{fn.__name__}({point!r})"


def test_domain_errors():
    with pytest.raises(DomainError):
        special.bessel_y0(0.0)
    with pytest.raises(DomainError):
        special.bessel_y1(-2.0)  # branch cut
    with pytest.raises(DomainError):
        special.bessel_j0(complex(float("nan"), 0.0))
    for fn in (special.bessel_i0, special.bessel_i1, special.bessel_k0, special.bessel_k1):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.0)


def test_overflow_saturation_raises():
    with pytest.raises(OverflowSaturation):
        special.bessel_i1(800.0)
    with pytest.raises(OverflowSaturation):
        special.bessel_j1(complex(0.0, 800.0))


# --------------------------------------------------------------------------
# modal closed forms


MODAL_LAMBDAS = [0.317, 0.883, 1.0, -0.5, 6 + 1.5j, 2.0, -2.0, 0.25j]


@pytest.mark.parametrize("lam", MODAL_LAMBDAS)
def test_modal_matches_initial_data(lam):
    sol = special.make_modal_solution(lam, 1.5, 0.7 - 0.2j, -0.3 + 0.1j)
    val = special.eval_modal(sol, 1.5)
    assert abs(val.y - (0.7 - 0.2j)) <= 1e-12
    assert abs(val.ydot - (-0.3 + 0.1j)) <= 1e-12
    assert not val.saturated


@pytest.mark.parametrize("lam", MODAL_LAMBDAS + [0.0])
def test_modal_ode_residual(lam):
    # y'' + (3/t) y' + lam y = 0 checked by central differences of the
    # closed form itself; h = 1e-4 puts the h^2 truncation near 1e-9.
    sol = special.make_modal_solution(lam, 1.0, 0.8, -0.4)
    h = 3e-4  # balances h^2 truncation against eps/h^2 roundoff
    for t in (1.5, 3.0, 7.0, 15.0, 40.0):
        ym = special.eval_modal(sol, t - h).y
        y0 = special.eval_modal(sol, t).y
        yp = special.eval_modal(sol, t + h).y
        ydd = (yp - 2.0 * y0 + ym) / h**2
        yd = (yp - ym) / (2.0 * h)
        scale = max(1.0, abs(y0))
        assert abs(ydd + 3.0 / t * yd + lam * y0) <= 1e-6 * scale, f"t = {t}"


@pytest.mark.parametrize("lam", MODAL_LAMBDAS)
def test_modal_abel_wronskian(lam):
    # For y'' + (3/t)y' + lam y = 0 the Wronskian of two solutions obeys
    # W(t) = W(t0) (t0/t)^3 exactly (Abel's identity); with initial data
    # (1,0) and (0,1) at t0, W(t0) = 1.  On growing branches the products
    # being subtracted reach e^{2*rate*t}, so the window is capped where
    # doubles can still resolve the difference.
    t0 = 1.0
    rate = spectral.classify_eigenvalue(complex(lam)).rate
    t_max, tol = (40.0, 1e-10) if rate == 0.0 else (t0 + 6.0 / rate, 1e-9)
    sa = special.make_modal_solution(lam, t0, 1.0, 0.0)
    sb = special.make_modal_solution(lam, t0, 0.0, 1.0)
    ts = np.linspace(t0, t_max, 157)
    ra = special.eval_modal_series(sa, ts)
    rb = special.eval_modal_series(sb, ts)
    wron = ra.y * rb.ydot - rb.y * ra.ydot
    expect = (t0 / ts) ** 3
    assert np.max(np.abs(wron - expect) / expect) <= tol


def test_modal_zero_branch_closed_form():
    # lam = 0: y = c1 + c2 t^{-2}; with y0 = 0, ydot0 = -2 at t0 = 1 the
    # coefficients are c1 = -1, c2 = 1.
    sol = special.make_modal_solution(0.0, 1.0, 0.0, -2.0)
    assert sol.branch is special.ModalBranch.ZERO
    assert abs(sol.c1 - (-1.0)) <= 1e-15
    assert abs(sol.c2 - 1.0) <= 1e-15
    val = special.eval_modal(sol, 10.0)
    assert abs(val.y - (-0.99)) <= 1e-15
    assert abs(val.ydot - (-2.0 / 1000.0)) <= 1e-15


def test_modal_zero_branch_limit():
    # finite limit c1 = y0 + (t0/2) ydot0
    sol = special.make_modal_solution(0.0, 2.0, 0.3, 0.5)
    assert abs(sol.c1 - (0.3 + 1.0 * 0.5)) <= 1e-14
    assert abs(special.eval_modal(sol, 1e9).y - sol.c1) <= 1e-12


def test_modal_branch_selection():
    cases = [
        (1.0, special.ModalBranch.POSITIVE_REAL),
        (0.0, special.ModalBranch.ZERO),
        (5e-13, special.ModalBranch.ZERO),  # below default tolerance
        (-0.5, special.ModalBranch.NEGATIVE_REAL),
        (6 + 1.5j, special.ModalBranch.COMPLEX),
        (-1 + 2j, special.ModalBranch.COMPLEX),
    ]
    for lam, branch in cases:
        assert special.make_modal_solution(lam, 1.0, 1.0, 0.0).branch is branch


def test_modal_saturation_sentinel():
    sol = special.make_modal_solution(-1.0, 1.0, 1.0, 0.0)
    series = special.eval_modal_series(sol, [10.0, 650.0, 800.0])
    assert list(series.saturated) == [False, False, True]
    assert np.all(np.isfinite(series.y.real))
    assert abs(series.y[2]) == math.exp(special.EXPONENT_CAP)


def test_modal_rejects_bad_domain():
    with pytest.raises(DomainError):
        special.make_modal_solution(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        special.make_modal_solution(1.0, -2.0, 1.0, 0.0)
    sol = special.make_modal_solution(1.0, 2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        special.eval_modal(sol, 1.0)  # before t0
    with pytest.raises(OverflowSaturation):
        special.make_modal_solution(-4.0, 1000.0, 1.0, 0.0)


def test_eval_modal_scalar_matches_series():
    sol = special.make_modal_solution(0.883, 1.0, 0.4, -0.1)
    ts = np.linspace(1.0, 25.0, 37)
    series = special.eval_modal_series(sol, ts)
    for i, t in enumerate(ts):
        val = special.eval_modal(sol, float(t))
        assert val.y == series.y[i]
        assert val.ydot == series.ydot[i]


@given(
    st.sampled_from([0.31, 1.0, 4.0, -0.5, -3.0, 1 + 1j, 0.5j, 0.0]),
    st.floats(min_value=0.5, max_value=8.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=80, deadline=None)
def test_modal_initial_data_property(lam, t0, y0, ydot0):
    sol = special.make_modal_solution(lam, t0, y0, ydot0)
    val = special.eval_modal(sol, t0)
    scale = max(1.0, abs(y0), abs(ydot0))
    assert abs(val.y - y0) <= 1e-10 * scale
    assert abs(val.ydot - ydot0) <= 1e-10 * scale
