"""Bessel kernels and closed-form modal solutions.

Reference values were computed once with mpmath at 40 significant
digits and are frozen here; only the rays near the branch cut are
compared with mpmath at run time.  The remaining checks are structural
(Wronskians, connection formulas, quadrature cross-checks, ODE
residuals) so they do not share code paths with the implementation.
The bit-for-bit tests keep the plain complex Miller sweep, which tests
for rescaling on every step, as the reference of the faster one.
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


def _mp_jy01(z: complex) -> list[complex]:
    import mpmath

    with mpmath.workdps(30):
        m = mpmath.mpc(z.real, z.imag)
        return [complex(f(order, m)) for f in (mpmath.besselj, mpmath.bessely) for order in (0, 1)]


def test_miller_recurrence_matches_mpmath_at_every_argument():
    # seeded points with |z| log-uniform in [1e-3, 20] and arg z uniform in
    # (-pi, pi): the recurrence, both normalisations and both Neumann sums
    rng = np.random.default_rng(20261018)
    r = 10.0 ** rng.uniform(-3.0, math.log10(20.0), 300)
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    values = special._jy01(z)
    for i, point in enumerate(z):
        for name, got, want in zip(("J0", "J1", "Y0", "Y1"), (v[i] for v in values), _mp_jy01(point)):
            assert abs(got - want) <= 1e-13 * abs(want), f"{name}({point})"


def test_jy_imaginary_part_is_exactly_zero_on_the_real_axis():
    x = np.linspace(0.0, 20.0, 801)[1:]
    for index, values in enumerate(special._jy01(x)):
        assert np.all(values.imag == 0.0), f"output {index}"
    for fn in (special.bessel_j0, special.bessel_j1, special.bessel_y0, special.bessel_y1):
        assert all(fn(float(v)).imag == 0.0 for v in x[::40]), fn.__name__


# z = 1e-300 is where 2n/z overflows any recurrence; the band edge is
# bracketed on the real axis and on a complex ray.
TINY_POINTS = [1e-300, 1e-20, 1e-7, 1e-7 * complex(math.cos(2.5), math.sin(2.5))] + [
    scale * edge
    for edge in _either_side(special._JY_TINY_RADIUS) + [0.5e-6, 2e-6]
    for scale in (1.0, complex(math.cos(-1.0), math.sin(-1.0)))
]


def test_tiny_arguments_are_finite_accurate_and_scalar_matches_array():
    values = special._jy01(np.array(TINY_POINTS, dtype=complex))
    scalar_fns = (special.bessel_j0, special.bessel_j1, special.bessel_y0, special.bessel_y1)
    for i, point in enumerate(TINY_POINTS):
        for fn, got, want in zip(scalar_fns, (v[i] for v in values), _mp_jy01(complex(point))):
            assert math.isfinite(got.real) and math.isfinite(got.imag), f"{fn.__name__}({point})"
            assert abs(got - want) <= 1e-14 * abs(want), f"{fn.__name__}({point})"
            # numpy rounds a complex product of arrays and of scalars differently
            assert abs(fn(point) - got) <= 1e-15 * abs(got), f"{fn.__name__}({point})"


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _every_step_jy01_series(z):
    # Miller's sweep in complex128 with the rescale test on every step: the
    # plain form that special._miller_sweep must reproduce bit for bit
    two_over_z = 2.0 / z
    f_above, f = 0.0, 1.0
    even = alt_even = alt_odd = y0_sum = y1_sum = 0.0
    for n, a, b in special._MILLER_WEIGHTS:
        f_above, f = f, (n * two_over_z) * f - f_above
        if n % 2 == 0:
            alt_odd = alt_odd + a * f
            y1_sum = y1_sum + b * f
        elif n > 1:
            even = even + f
            alt_even = alt_even + a * f
            y0_sum = y0_sum + b * f
        big = abs(f) > special._MILLER_RESCALE_AT
        if big.any():
            scale = np.where(big, special._MILLER_RESCALE_BY, 1.0)
            f, f_above, even, alt_even, alt_odd, y0_sum, y1_sum = (
                v * scale for v in (f, f_above, even, alt_even, alt_odd, y0_sum, y1_sum)
            )
    s = np.where(z.imag > 0.0, -1j, 1j)
    norm = np.where(z.imag == 0.0, f + 2.0 * even, (f + 2.0 * (alt_even + s * alt_odd)) * np.exp(-s * z))
    j0, j1 = f / norm, f_above / norm
    log_term = np.log(0.5 * z) + special._GAMMA
    y0_ = (2.0 / math.pi) * (log_term * j0 - 2.0 * y0_sum / norm)
    y1_ = (2.0 / math.pi) * (log_term * j1 + y1_sum / norm - j0 / z)
    return j0, j1, y0_, y1_


def _every_step_jy01(z):
    z = np.asarray(z, dtype=complex)
    regime = np.searchsorted((special._JY_TINY_RADIUS, special.SERIES_RADIUS), np.abs(z))
    evaluators = (special._jy01_tiny, _every_step_jy01_series, special._jy01_asymptotic)
    return special._by_regime(z, regime, evaluators, 4)


def _jy_bit_sample() -> np.ndarray:
    # one mixed batch: all four quadrants with |z| in the band (1e-6, 1e-3]
    # where the sweep rescales repeatedly and up to 20, |z| -> 20-, the tiny
    # and Hankel regimes, x + 0j, x - 0j, both sides of the negative real
    # axis and the imaginary axis
    rng = np.random.default_rng(20261020)

    def polar(r):
        return r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))

    x = np.concatenate([10.0 ** rng.uniform(-6.0, math.log10(20.0), 120), [20.0, np.nextafter(1e-6, 1.0), 0.4]])
    near_20 = 20.0 * (1.0 - 10.0 ** rng.uniform(-16.0, -2.0, 40))
    z = np.concatenate(
        [
            polar(10.0 ** rng.uniform(-6.0, -3.0, 150)),
            polar(10.0 ** rng.uniform(-3.0, math.log10(20.0), 150)),
            polar(near_20),
            polar(10.0 ** rng.uniform(-9.0, -6.0, 10)),
            polar(rng.uniform(20.0, 30.0, 10)),
            near_20 + 0j,
            x + 0j,
            np.conj(x + 0j),
            -x + 0j,
            np.conj(-x + 0j),
            1j * x,
            -1j * x,
        ]
    )
    return z[rng.permutation(z.size)]


def test_jy01_matches_the_every_step_complex_sweep_bit_for_bit():
    # the float64 sweep of the positive real axis and the rescale test on
    # every fourth step change no bit; each entry of a mixed batch reads what
    # the every-step sweep gives it alone, and a scalar what it gives a scalar
    z = _jy_bit_sample()
    batch = special._jy01(z)
    for i, point in enumerate(z):
        alone = _every_step_jy01(z[i : i + 1])
        for name, got, want in zip(("J0", "J1", "Y0", "Y1"), (v[i : i + 1] for v in batch), alone):
            assert _same_bits(got, want), f"{name}({point!r})"
    for point in z[::4]:
        for name, got, want in zip(("J0", "J1", "Y0", "Y1"), special._jy01(point), _every_step_jy01(point)):
            assert type(got) is type(want)
            assert _same_bits(got, want), f"{name}({point!r})"


def test_jy01_batch_without_rescaling_matches_the_every_step_batch():
    # the Wronskian batch of `nagdyn check`: 24 real and 8 complex points,
    # none small enough to rescale, routed to the two sweeps element by element
    polar = [r * complex(math.cos(a), math.sin(a)) for r in (1.0, 8.0, 19.0, 23.0) for a in (0.7, -1.2)]
    z = np.concatenate([np.linspace(0.5, 40.0, 24), polar])
    for got, want in zip(special._jy01(z), _every_step_jy01(z)):
        assert _same_bits(got, want)


def test_jy01_entries_do_not_depend_on_their_batch_mates():
    # axis points with |z| >= 0.5 never rescale; batched with points that
    # do, they must keep their bits.  Multiplying them by 1 + 0i instead
    # would set the sign of an exactly zero imaginary part from the real one.
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 20.0, 400)
    axes = np.concatenate([-x + 0j, np.conj(-x + 0j), 1j * x, -1j * x])
    mates = 10.0 ** rng.uniform(-6.0, -1.0, 8) * np.exp(1j * rng.uniform(-math.pi, math.pi, 8))
    for alone, batched in zip(special._jy01(axes), special._jy01(np.concatenate([mates, axes]))):
        assert _same_bits(alone, batched[mates.size :])


def test_jy01_keeps_the_log_branch_on_the_negative_real_axis():
    # DLMF 10.11.1-2 on the Miller band: Y0(-x +- 0i) = Y0(x) +- 2i J0(x),
    # Y1(-x +- 0i) = -(Y1(x) +- 2i J1(x)); a real sweep of -x would drop the i pi
    x = np.array([1e-5, 0.3, 2.0, 7.5, 19.9])
    j0, j1, y0, y1 = special._jy01(x)
    for sign in (1.0, -1.0):
        m0, m1, n0, n1 = special._jy01(-x + 0j if sign > 0 else np.conj(-x + 0j))
        assert np.allclose(m0, j0, rtol=1e-14, atol=0.0)
        assert np.allclose(m1, -j1, rtol=1e-14, atol=0.0)
        assert np.allclose(n0, y0 + sign * 2j * j0, rtol=1e-13, atol=0.0)
        assert np.allclose(n1, -(y1 + sign * 2j * j1), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "z",
    [1e-9 + 1e-9j, 0.5 + 0.5j, 3.0 + 0j, 25.0 + 3.0j, -10.42 + 17.14j, -25.0 - 3.0j],
    ids=["tiny", "series", "series_real", "asymptotic", "asymptotic_reflected", "asymptotic_reflected_below"],
)
def test_jy01_of_one_argument_gives_numpy_scalars(z):
    # _by_regime runs a single argument on a numpy scalar and returns values
    # of its dtype, for the float64 sweep and the reflected Hankel one too
    values = special._jy01(z)
    assert [type(v) for v in values] == [np.complex128] * 4
    for got, batch in zip(values, special._jy01(np.array([z, z]))):
        assert got == pytest.approx(batch[0], rel=1e-14)


def _scalar_bits_match_batch(evaluator, points):
    batch = evaluator(points)
    for i, point in enumerate(points):
        for k, got in enumerate(evaluator(point)):
            assert _same_bits(np.asarray(got).reshape(1), batch[k][i : i + 1]), f"output {k} at {point!r}"


def test_scalar_and_array_take_the_same_bits():
    # numpy rounds complex products of scalars and of arrays differently,
    # so J/Y are compared on the positive real axis, where both sweep in
    # float64.  I and K span every regime; the K batch holds x = 2.0001,
    # which must not lengthen the trapezoid of its batch-mates
    rng = np.random.default_rng(7)
    x = 10.0 ** rng.uniform(-6.0, math.log10(30.0), 300)
    _scalar_bits_match_batch(special._jy01, x.astype(complex))
    _scalar_bits_match_batch(special._i01, 10.0 ** rng.uniform(-3.0, math.log10(700.0), 300))
    k_points = np.concatenate([[2.0001], rng.uniform(2.0, 20.0, 300), 10.0 ** rng.uniform(-3.0, 3.0, 100)])
    _scalar_bits_match_batch(special._k01, k_points)


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
    assert sol.branch is spectral.EigenvalueClass.ZERO
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
        (1.0, spectral.EigenvalueClass.POSITIVE_REAL),
        (0.0, spectral.EigenvalueClass.ZERO),
        (5e-13, spectral.EigenvalueClass.ZERO),  # below default tolerance
        (-0.5, spectral.EigenvalueClass.NEGATIVE_REAL),
        (6 + 1.5j, spectral.EigenvalueClass.STRICTLY_COMPLEX),
        (-1 + 2j, spectral.EigenvalueClass.STRICTLY_COMPLEX),
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
    # NaN passes the t < t0 test, and inf reads as NaN: neither is a time
    for lam in (1.0, -0.5, 6 + 1.5j, 0.0):
        sol = special.make_modal_solution(lam, 2.0, 1.0, 0.0)
        for times in ([math.nan], [2.0, math.nan], [math.inf]):
            with pytest.raises(DomainError):
                special.eval_modal_series(sol, times)
            with pytest.raises(DomainError):
                special.eval_modal_batch([sol, sol], [[3.0], times])


def test_batched_modal_evaluation_equals_separate_calls_bit_for_bit():
    # every branch, entries past the cap (lam = -1 at t = 800) between
    # others, empty times, one time, and solutions that share their times
    # and that do not; each series must be its solution's evaluated alone,
    # and each entry of it the entry evaluated on its own
    shared = np.linspace(1.0, 30.0, 41)
    cases = [
        (0.317, shared),
        (1.0, shared),
        (0.7, np.linspace(1.0, 3.0, 11)),
        (0.7, np.array([2.5])),
        (1.0, np.array([])),
        (-0.5, shared),
        (-1.0, np.array([10.0, 650.0, 800.0, 1.5])),
        (-3.0, np.array([])),
        (6 + 1.5j, shared),
        (-1 + 2j, np.linspace(1.0, 5.0, 7)),
        (0.5j, np.array([3.0])),
        (0.0, shared),
        (0.0, np.array([])),
    ]
    sols = [special.make_modal_solution(lam, 1.0, 1.0, -0.3) for lam, _ in cases]
    batch = special.eval_modal_batch(sols, [ts for _, ts in cases])
    assert len(batch) == len(cases)
    for sol, (lam, ts), got in zip(sols, cases, batch):
        for name, g, want in zip(("y", "ydot", "saturated"), got, special.eval_modal_series(sol, ts)):
            assert _same_bits(g, want), f"{name} at lam = {lam!r}"
        for i, t in enumerate(ts):
            val = special.eval_modal(sol, t)
            assert _same_bits(got.y[i], val.y) and _same_bits(got.ydot[i], val.ydot), f"lam = {lam!r}, t = {t!r}"
            assert got.saturated[i] == val.saturated
    assert batch[6].saturated.tolist() == [False, False, True, False]


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
