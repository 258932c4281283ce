"""Bessel-family special functions and closed-form modal oscillator solutions.

Self-contained evaluators for the order-zero and order-one Bessel
functions J, Y on the cut complex plane and the modified functions I, K
on the positive real axis, together with the closed-form solutions of
the vanishing-damping oscillator

    y''(t) + (3/t) y'(t) + lam * y(t) = 0,    t >= t0 > 0.

The fundamental pairs are t^{-1} J_1(s t) / t^{-1} Y_1(s t) with
s = sqrt(lam) (principal branch; real s for lam > 0), t^{-1} I_1(mu t) /
t^{-1} K_1(mu t) with mu = sqrt(-lam) for lam < 0, and {1, t^{-2}} for
lam = 0.

Evaluation regimes
------------------
Ascending series (DLMF 10.2.2, 10.8.1, 10.25.2, 10.31.1) are used for
|z| <= 20 and Hankel-type asymptotic expansions (DLMF 10.17.3, 10.40.1,
10.40.2) beyond; J/Y with Re z < 0 come from -z by the reflection
formulas DLMF 10.11.1-2.  The modified K additionally uses the integral
representation K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du on
2 < x <= 20, where neither the logarithmic series nor the asymptotic
expansion reaches full precision; the even, super-exponentially decaying
integrand makes the trapezoid rule spectrally accurate there.

The alternating ascending series lose up to nine digits to cancellation
near the regime boundary, so their terms and partial sums are carried in
double-double (compensated) arithmetic built from the Dekker/Knuth
error-free transforms.  Those transforms require strict IEEE-754 double
evaluation, which CPython floats and numpy float64 both provide.

One private dispatcher picks the regime for J/Y, I and K alike, so
scalars and arrays take the same path: an array is split by regime mask,
and a single argument (what the public ``bessel_*`` functions pass) runs
its one regime directly on a numpy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OverflowSaturation, SingularBasis
from .spectral import DEFAULT_SCALAR_TOL, EigenvalueClass, classify_eigenvalue

__all__ = [
    "SERIES_RADIUS",
    "EXPONENT_CAP",
    "bessel_j0",
    "bessel_j1",
    "bessel_y0",
    "bessel_y1",
    "bessel_i0",
    "bessel_i1",
    "bessel_k0",
    "bessel_k1",
    "ModalSolution",
    "ModalValue",
    "ModalSeries",
    "make_modal_solution",
    "eval_modal",
    "eval_modal_series",
]

#: Handover radius between ascending series and asymptotic expansions.
SERIES_RADIUS = 20.0

#: Cap, in natural-log units, on any exponentially growing factor.
EXPONENT_CAP = 700.0

_SPLITTER = 134217729.0  # 2**27 + 1
_GAMMA_HI = 0.5772156649015329  # Euler-Mascheroni, leading double
_GAMMA_LO = -4.942915152430645e-18  # and its double-double correction
_SERIES_MAX_TERMS = 220
_ASYM_TERMS = 26
_K_QUAD_STEP = 0.15


# --------------------------------------------------------------------------
# double-double arithmetic (elementwise over floats or numpy arrays)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    # requires |a| >= |b|, which holds for (hi, lo) renormalization
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLITTER * a
    ah = ta - (ta - a)
    al = a - ah
    tb = _SPLITTER * b
    bh = tb - (tb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def _dd_sub(x, y):
    return _dd_add(x, (-y[0], -y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div_real(x, d):
    q1 = x[0] / d
    p, e = _two_prod(q1, d)
    return _fast_two_sum(q1, (((x[0] - p) - e) + x[1]) / d)


def _dd_recip(n: float):
    q = 1.0 / n
    p, e = _two_prod(q, n)
    return _fast_two_sum(q, ((1.0 - p) - e) / n)


# complex double-double: pair (re_dd, im_dd)


def _cdd_add(x, y):
    return (_dd_add(x[0], y[0]), _dd_add(x[1], y[1]))


def _cdd_mul(x, y):
    re = _dd_sub(_dd_mul(x[0], y[0]), _dd_mul(x[1], y[1]))
    im = _dd_add(_dd_mul(x[0], y[1]), _dd_mul(x[1], y[0]))
    return (re, im)


def _cdd_mul_dd(x, d):
    return (_dd_mul(x[0], d), _dd_mul(x[1], d))


def _cdd_div_real(x, d):
    return (_dd_div_real(x[0], d), _dd_div_real(x[1], d))


def _cdd_value(x):
    return (x[0][0] + x[0][1]) + 1j * (x[1][0] + x[1][1])


# --------------------------------------------------------------------------
# J/Y on the cut plane


def _jy01_series(z: np.ndarray):
    """J0, J1, Y0, Y1 by ascending series with double-double accumulation."""
    x, y = z.real.astype(float), z.imag.astype(float)
    # w = z^2/4 exactly: z^2 = (x^2 - y^2) + 2xy i via error-free products,
    # then an exact scaling by powers of two.
    wre = _dd_sub(_two_prod(x, x), _two_prod(y, y))
    wre = (0.25 * wre[0], 0.25 * wre[1])
    pxy = _two_prod(x, y)
    wim = (0.5 * pxy[0], 0.5 * pxy[1])
    mw = ((-wre[0], -wre[1]), (-wim[0], -wim[1]))

    one = np.ones_like(x)
    zero = np.zeros_like(x)

    def cdd_const(c):
        return ((c * one, zero.copy()), (zero.copy(), zero.copy()))

    t0 = cdd_const(1.0)  # (-w)^k / (k!)^2
    t1 = cdd_const(1.0)  # (-w)^k / (k! (k+1)!)
    s_j0 = cdd_const(1.0)
    s_j1 = cdd_const(1.0)
    s_y0 = cdd_const(0.0)  # sum_{k>=1} H_k (-w)^k / (k!)^2
    minus_2g = (-2.0 * _GAMMA_HI, -2.0 * _GAMMA_LO)
    c0 = _dd_add((1.0, 0.0), minus_2g)  # H_0 + H_1 - 2 gamma
    s_y1 = ((c0[0] * one, c0[1] * one), (zero.copy(), zero.copy()))

    h_next = (1.0, 0.0)  # H_1
    for k in range(1, _SERIES_MAX_TERMS + 1):
        t0 = _cdd_div_real(_cdd_mul(t0, mw), float(k) * float(k))
        t1 = _cdd_div_real(_cdd_mul(t1, mw), float(k) * float(k + 1))
        h_k = h_next
        h_next = _dd_add(h_k, _dd_recip(float(k + 1)))
        s_j0 = _cdd_add(s_j0, t0)
        s_j1 = _cdd_add(s_j1, t1)
        s_y0 = _cdd_add(s_y0, _cdd_mul_dd(t0, h_k))
        coeff = _dd_add(_dd_add(h_k, h_next), minus_2g)
        s_y1 = _cdd_add(s_y1, _cdd_mul_dd(t1, coeff))
        if k % 4 == 0:
            tmag = np.hypot(t0[0][0], t0[1][0]) + np.hypot(t1[0][0], t1[1][0])
            smag = np.hypot(s_j0[0][0], s_j0[1][0]) + 1e-300
            if np.all(tmag <= 1e-33 * smag):
                break

    j0 = _cdd_value(s_j0)
    j1 = 0.5 * z * _cdd_value(s_j1)
    # The cancellation-prone sums are already compensated; the remaining
    # combinations are benign and run in plain doubles.
    log_half_z = np.log(0.5 * z)
    two_over_pi = 2.0 / math.pi
    y0_ = two_over_pi * ((log_half_z + _GAMMA_HI) * j0 - _cdd_value(s_y0))
    y1_ = two_over_pi * (log_half_z * j1) - two_over_pi / z - (z / (2.0 * math.pi)) * _cdd_value(s_y1)
    return j0, j1, y0_, y1_


def _asym_coeffs(nu: int) -> np.ndarray:
    """a_k(nu) = prod_{m=1..k} (4 nu^2 - (2m-1)^2) / (8 m), k = 0.._ASYM_TERMS."""
    mu4 = 4.0 * nu * nu
    out = [1.0]
    for k in range(1, _ASYM_TERMS + 1):
        out.append(out[-1] * (mu4 - (2 * k - 1) ** 2) / (8.0 * k))
    return np.array(out)


_A0 = _asym_coeffs(0)
_A1 = _asym_coeffs(1)


def _asym_sum(coeffs: np.ndarray, w):
    """sum_k coeffs[k] w^k, accumulated from k = 0 upward."""
    total, wk = coeffs[0], 1.0
    for a in coeffs[1:]:
        wk = wk * w
        total = total + a * wk
    return total


def _by_regime(x: np.ndarray, bounds: tuple, evaluators: tuple, n_out: int):
    """Evaluate a family piecewise in |x|; evaluators[k] serves bounds[k-1] < |x| <= bounds[k].

    A 0-d ``x`` runs only its own regime, on a numpy scalar.  An array is
    split by mask and each regime fills its entries; NaN falls in the last
    regime.  Each evaluator returns ``n_out`` values of ``x``'s dtype.
    """
    regime = np.searchsorted(bounds, np.abs(x))
    if x.ndim == 0:
        return evaluators[regime](x[()])
    out = [np.empty_like(x) for _ in range(n_out)]
    for k, evaluate in enumerate(evaluators):
        mask = regime == k
        if np.any(mask):
            for o, val in zip(out, evaluate(x[mask])):
                o[mask] = val
    return tuple(out)


def _jy01_asymptotic(z: np.ndarray):
    """J0, J1, Y0, Y1 by the Hankel expansion, |z| > SERIES_RADIUS.

    Near the cut the expansion misses the subdominant exponential, so
    Re z < 0 is evaluated at -z and mapped back by DLMF 10.11.1-2:
    J0(z) = J0(-z), J1(z) = -J1(-z), Y0(z) = Y0(-z) + 2i s J0(-z) and
    Y1(z) = -(Y1(-z) + 2i s J1(-z)), with s the sign of Im z.
    """
    if np.any(np.abs(z.imag) > EXPONENT_CAP):
        raise OverflowSaturation("Bessel argument beyond the exp(700) range")
    left = z.real < 0.0
    c = np.where(z.imag > 0.0, 2j, -2j)
    z = np.where(left, -z, z)[()]
    zinv = 1.0 / z
    w = -zinv * zinv
    # P + iQ = sum a_k (i/z)^k: P is its even part, Q its odd part over i
    p0, q0 = _asym_sum(_A0[0::2], w), zinv * _asym_sum(_A0[1::2], w)
    p1, q1 = _asym_sum(_A1[0::2], w), zinv * _asym_sum(_A1[1::2], w)
    amp = np.sqrt((2.0 / math.pi) * zinv)
    w0 = z - 0.25 * math.pi
    w1 = z - 0.75 * math.pi
    c0, s0 = np.cos(w0), np.sin(w0)
    c1, s1 = np.cos(w1), np.sin(w1)
    j0 = amp * (c0 * p0 - s0 * q0)
    y0_ = amp * (s0 * p0 + c0 * q0)
    j1 = amp * (c1 * p1 - s1 * q1)
    y1_ = amp * (s1 * p1 + c1 * q1)
    if np.any(left):
        y0_ = np.where(left, y0_ + c * j0, y0_)
        y1_ = np.where(left, -(y1_ + c * j1), y1_)
        j1 = np.where(left, -j1, j1)
    return j0, j1, y0_, y1_


def _jy01(z):
    """All four J/Y values, by series for |z| <= SERIES_RADIUS and Hankel beyond."""
    return _by_regime(np.asarray(z, dtype=complex), (SERIES_RADIUS,), (_jy01_series, _jy01_asymptotic), 4)


def _check_cut(z, allow_zero: bool) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("argument must be finite")
    if z == 0:
        if allow_zero:
            return z
        raise DomainError("z = 0 is a logarithmic singularity")
    if z.imag == 0.0 and z.real < 0.0:
        raise DomainError("the negative real axis is the branch cut")
    return z


def bessel_j0(z) -> complex:
    """J_0(z) on the principal branch (|arg z| < pi)."""
    z = _check_cut(z, allow_zero=True)
    return complex(_jy01(z)[0]) if z else 1.0 + 0.0j


def bessel_j1(z) -> complex:
    """J_1(z) on the principal branch (|arg z| < pi)."""
    z = _check_cut(z, allow_zero=True)
    return complex(_jy01(z)[1]) if z else 0.0 + 0.0j


def bessel_y0(z) -> complex:
    """Y_0(z) on the principal branch; z = 0 and the cut raise DomainError."""
    return complex(_jy01(_check_cut(z, allow_zero=False))[2])


def bessel_y1(z) -> complex:
    """Y_1(z) on the principal branch; z = 0 and the cut raise DomainError."""
    return complex(_jy01(_check_cut(z, allow_zero=False))[3])


# --------------------------------------------------------------------------
# I/K on the positive real axis


def _i01_series(x: np.ndarray):
    """I0, I1 ascending series, x <= 20.  All terms are positive, so plain
    summation loses nothing to cancellation; the rounding of the term
    recurrence, a few ulps, sets the error."""
    w = 0.25 * x * x
    t0 = np.ones_like(x)
    t1 = np.ones_like(x)
    s0 = np.ones_like(x)
    s1 = np.ones_like(x)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        t0 = t0 * w / (k * k)
        t1 = t1 * w / (k * (k + 1))
        s0 = s0 + t0
        s1 = s1 + t1
        if np.all(t0 + t1 <= 1e-18 * s0):
            break
    return s0, 0.5 * x * s1


def _i01_asymptotic(x: np.ndarray):
    """I0, I1 by DLMF 10.40.1: e^x / sqrt(2 pi x) * sum a_k(nu) (-1/x)^k."""
    amp = np.exp(x) / np.sqrt(2.0 * math.pi * x)
    w = -1.0 / x
    return amp * _asym_sum(_A0, w), amp * _asym_sum(_A1, w)


def _k01_series(x: np.ndarray):
    """K0, K1 logarithmic ascending series, x <= 2 (no cancellation there)."""
    i0, i1 = _i01_series(x)
    w = 0.25 * x * x
    lg = np.log(0.5 * x)
    t0 = np.ones_like(x)
    t1 = np.ones_like(x)
    s0 = np.zeros_like(x)  # sum_{k>=1} H_k w^k / (k!)^2
    s1 = np.full_like(x, 1.0 - 2.0 * _GAMMA_HI)  # sum (H_k + H_{k+1} - 2g) w^k/(k!(k+1)!)
    h_k = 0.0
    h_next = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        t0 = t0 * w / (k * k)
        t1 = t1 * w / (k * (k + 1))
        h_k = h_next
        h_next = h_k + 1.0 / (k + 1)
        s0 = s0 + h_k * t0
        s1 = s1 + (h_k + h_next - 2.0 * _GAMMA_HI) * t1
        if np.all(t0 + t1 <= 1e-18 * (np.abs(s0) + 1.0)):
            break
    k0 = -(lg + _GAMMA_HI) * i0 + s0
    k1 = 1.0 / x + lg * i1 - 0.25 * x * s1
    return k0, k1


def _k01_quadrature(x: np.ndarray):
    """K0, K1 from the cosh integral representation by the trapezoid rule.

    The integrand exp(-x cosh u) cosh(nu u) is even and decays like a
    double exponential, so a uniform grid with step 0.15 is accurate to
    machine precision once truncated where the exponent has fallen by 60."""
    tmax = np.arccosh(1.0 + 60.0 / x)
    nmax = int(np.max(np.ceil(tmax / _K_QUAD_STEP)))
    u = _K_QUAD_STEP * np.arange(nmax + 1)
    f = np.exp(-np.multiply.outer(x, np.cosh(u)))
    f[..., 0] *= 0.5
    k0 = _K_QUAD_STEP * f.sum(axis=-1)
    k1 = _K_QUAD_STEP * (f * np.cosh(u)).sum(axis=-1)
    return k0, k1


def _k01_asymptotic(x: np.ndarray):
    """K0, K1 by DLMF 10.40.2: sqrt(pi/(2x)) e^{-x} sum a_k(nu) x^{-k}."""
    w = 1.0 / x
    amp = np.sqrt(0.5 * math.pi * w) * np.exp(-x)
    return amp * _asym_sum(_A0, w), amp * _asym_sum(_A1, w)


def _i01(x):
    """I0, I1 for 0 < x <= EXPONENT_CAP."""
    return _by_regime(np.asarray(x, dtype=float), (SERIES_RADIUS,), (_i01_series, _i01_asymptotic), 2)


def _k01(x):
    """K0, K1 for x > 0 (three regimes: series, quadrature, asymptotic)."""
    return _by_regime(
        np.asarray(x, dtype=float), (2.0, SERIES_RADIUS), (_k01_series, _k01_quadrature, _k01_asymptotic), 2
    )


def _check_positive(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    if x <= 0.0:
        raise DomainError("modified Bessel functions require x > 0 here")
    return x


def _check_below_cap(x: float, name: str) -> float:
    x = _check_positive(x)
    if x > EXPONENT_CAP:
        raise OverflowSaturation(f"{name}({x:g}) overflows double precision")
    return x


def bessel_i0(x) -> float:
    """I_0(x), x > 0; OverflowSaturation beyond the exp(700) range."""
    return float(_i01(_check_below_cap(x, "I_0"))[0])


def bessel_i1(x) -> float:
    """I_1(x), x > 0; OverflowSaturation beyond the exp(700) range."""
    return float(_i01(_check_below_cap(x, "I_1"))[1])


def bessel_k0(x) -> float:
    """K_0(x), x > 0."""
    return float(_k01(_check_positive(x))[0])


def bessel_k1(x) -> float:
    """K_1(x), x > 0."""
    return float(_k01(_check_positive(x))[1])


# --------------------------------------------------------------------------
# closed-form modal solutions


class ModalValue(NamedTuple):
    y: complex
    ydot: complex
    saturated: bool


class ModalSeries(NamedTuple):
    y: np.ndarray
    ydot: np.ndarray
    saturated: np.ndarray


@dataclass(frozen=True)
class ModalSolution:
    """Closed-form solution y = c1 b1(t) + c2 b2(t) of one modal equation.

    ``branch`` and ``rate`` are the class and envelope growth rate of
    ``lam`` from :func:`nagdyn.spectral.classify_eigenvalue`; EXPONENT_CAP
    bounds ``rate * t``.
    """

    lam: complex
    t0: float
    branch: EigenvalueClass
    rate: float
    c1: complex
    c2: complex
    y0: complex
    ydot0: complex


def _basis(branch: EigenvalueClass, lam: complex, ts: np.ndarray):
    """Basis values and derivatives (b1, b2, b1', b2') at the given times.

    Derivatives use d/dt [t^{-1} C_1(s t)] = s C_0(s t)/t - 2 C_1(s t)/t^2,
    which follows from C_1'(z) = C_0(z) - C_1(z)/z for C in {J, Y, I} and
    K_1'(z) = -K_0(z) - K_1(z)/z.
    """
    if branch is EigenvalueClass.NEGATIVE_REAL:
        mu = math.sqrt(-lam.real)
        x = mu * ts
        i0, i1 = _i01(x)
        k0, k1 = _k01(x)
        b1, b2 = i1 / ts, k1 / ts
        d1 = mu * i0 / ts - 2.0 * i1 / ts**2
        d2 = -mu * k0 / ts - 2.0 * k1 / ts**2
    elif branch is EigenvalueClass.ZERO:
        raise ValueError("zero branch has no Bessel basis")
    else:
        s = math.sqrt(lam.real) if branch is EigenvalueClass.POSITIVE_REAL else complex(np.sqrt(complex(lam)))
        j0, j1, y0_, y1_ = _jy01(s * ts.astype(complex))
        b1, b2 = j1 / ts, y1_ / ts
        d1 = s * j0 / ts - 2.0 * j1 / ts**2
        d2 = s * y0_ / ts - 2.0 * y1_ / ts**2
    return b1, b2, d1, d2


def make_modal_solution(
    lam: complex,
    t0: float,
    y0: complex,
    ydot0: complex,
    tol: float = DEFAULT_SCALAR_TOL,
) -> ModalSolution:
    """Match initial data (y0, ydot0) at t0 > 0 and return the closed form.

    The branch is chosen by :func:`nagdyn.spectral.classify_eigenvalue`
    with the same tolerance semantics.  The 2x2 basis matrix at t0 has
    determinant 2/(pi t0^3) (J/Y pair) or -1/t0^3 (I/K pair), so it is
    singular only through numerical saturation, which raises
    :class:`~nagdyn.errors.SingularBasis`.
    """
    t0 = float(t0)
    if not (t0 > 0.0) or not math.isfinite(t0):
        raise DomainError("t0 must be positive and finite")
    lam = complex(lam)
    y0 = complex(y0)
    ydot0 = complex(ydot0)
    cls = classify_eigenvalue(lam, tol)
    if cls.tag is EigenvalueClass.ZERO:
        # y = c1 + c2 t^{-2}: the finite limit is c1 = y0 + (t0/2) ydot0.
        c2 = -0.5 * ydot0 * t0**3
        c1 = y0 - c2 / t0**2
    else:
        if cls.rate * t0 > EXPONENT_CAP:
            raise OverflowSaturation("basis already saturated at t0")
        b1, b2, d1, d2 = map(complex, _basis(cls.tag, lam, np.float64(t0)))
        det = b1 * d2 - b2 * d1
        if abs(det) < 1e-300:
            raise SingularBasis(f"basis Wronskian vanished at t0 = {t0:g}")
        c1 = (y0 * d2 - ydot0 * b2) / det
        c2 = (ydot0 * b1 - y0 * d1) / det
    return ModalSolution(lam=lam, t0=t0, branch=cls.tag, rate=cls.rate, c1=c1, c2=c2, y0=y0, ydot0=ydot0)


def eval_modal_series(sol: ModalSolution, times) -> ModalSeries:
    """Evaluate (y, ydot) over an array of times t >= t0.

    Where the growing factor would exceed exp(EXPONENT_CAP) the entries
    are replaced by a finite sentinel of magnitude exp(EXPONENT_CAP) and
    flagged in ``saturated`` instead of overflowing to inf/NaN.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim == 0:
        ts = ts.reshape(1)
    if np.any(ts < sol.t0 * (1.0 - 1e-12)):
        raise DomainError("evaluation before t0 is outside the solution domain")

    y = np.empty(ts.shape, dtype=complex)
    ydot = np.empty(ts.shape, dtype=complex)
    saturated = np.zeros(ts.shape, dtype=bool)

    if sol.branch is EigenvalueClass.ZERO:
        y[...] = sol.c1 + sol.c2 / ts**2
        ydot[...] = -2.0 * sol.c2 / ts**3
        return ModalSeries(y, ydot, saturated)

    saturated = sol.rate * ts > EXPONENT_CAP
    ok = ~saturated
    if np.any(ok):
        b1, b2, d1, d2 = _basis(sol.branch, sol.lam, ts[ok])
        y[ok] = sol.c1 * b1 + sol.c2 * b2
        ydot[ok] = sol.c1 * d1 + sol.c2 * d2
    if np.any(saturated):
        sentinel = math.exp(EXPONENT_CAP)
        y[saturated] = sentinel
        ydot[saturated] = sentinel
    return ModalSeries(y, ydot, saturated)


def eval_modal(sol: ModalSolution, t: float) -> ModalValue:
    """Evaluate one time point; see :func:`eval_modal_series`."""
    series = eval_modal_series(sol, np.array([float(t)]))
    return ModalValue(complex(series.y[0]), complex(series.ydot[0]), bool(series.saturated[0]))
