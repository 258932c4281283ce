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
J/Y for |z| <= 20 come from one backward sweep of Miller's recurrence
f_{n-1} = (2n/z) f_n - f_{n+1} from the fixed order N = 100 (Gautschi,
SIAM Review 9 (1967); Gil, Segura & Temme 2007, section 4.6).  The f_n are
proportional to J_n(z) and are normalised by 1 = J0 + 2 sum J_2k on the
real axis and by e^{sz} = J0 + 2 sum s^n J_n, |e^{sz}| = e^{|Im z|},
elsewhere, so neither sum cancels; Y0 and Y1 come from the same sweep by
Neumann's series (A&S 9.1.88) and its derivative.  The sweep tests for
rescaling on every fourth step, and on the positive real axis it runs in
float64, with the normalisation written to give the bits of numpy's
complex arithmetic there; against a complex sweep that tests on every
step, neither changes an output bit.  Below
|z| = 1e-6 two terms of the ascending series (DLMF 10.2.2, 10.8.1) are
exact to rounding, and the sweep, whose 2n/z overflows as z -> 0, is not
run.  Beyond |z| = 20 the Hankel-type asymptotic expansion (DLMF 10.17.3)
is used; J/Y with Re z < 0 there come from -z by the reflection formulas
DLMF 10.11.1-2.

I and K use ascending series (DLMF 10.25.2, 10.31.1) for x <= 20, where
their terms do not cancel, and the asymptotic expansions (DLMF 10.40.1,
10.40.2) beyond.  K additionally uses the integral representation
K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du on 2 < x <= 20, where
neither the logarithmic series nor the asymptotic expansion reaches full
precision; the even, super-exponentially decaying integrand makes the
trapezoid rule spectrally accurate there, on one fixed grid for every x.

One private dispatcher picks the regime for J/Y, I and K alike, so
scalars and arrays take the same path: an array is split by regime mask,
and a single argument (what the public ``bessel_*`` functions pass) runs
its one regime directly on a numpy scalar.  No value depends on the
other entries of its array.  A scalar and an array entry agree bit for bit
wherever the arithmetic is real: for I, K and J/Y on the positive real
axis.  Off it numpy rounds complex products of scalars and of arrays
differently, in the last bit.

:func:`eval_modal_batch` evaluates many modal solutions at once: the
solutions of one branch share one Bessel call on their concatenated
arguments, and each applies its own scalars to its own slice, so each
series is bit for bit what its solution gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OverflowSaturation, SingularBasis
from .spectral import EigenvalueClass, classify_eigenvalue

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
    "eval_modal_batch",
]

#: Handover radius to the asymptotic expansions.
SERIES_RADIUS = 20.0

#: Cap, in natural-log units, on any exponentially growing factor.
EXPONENT_CAP = 700.0

_GAMMA = 0.5772156649015329  # Euler-Mascheroni
_SERIES_MAX_TERMS = 220
_ASYM_TERMS = 26
_K_QUAD_STEP = 0.15
#: cosh u at the trapezoid nodes of K on 2 < x <= 20: they reach
#: u = arccosh(1 + 60/2), where exp(-x cosh u) has fallen by e^60 at x = 2.
_K_QUAD_COSH = np.cosh(_K_QUAD_STEP * np.arange(math.ceil(math.acosh(31.0) / _K_QUAD_STEP) + 1))

#: J/Y below this |z| come from the leading terms of the ascending series.
_JY_TINY_RADIUS = 1e-6
#: Start order of Miller's recurrence, fixed so every |z| <= 20 sweeps alike:
#: a scalar and an array, and the float64 positive real axis and the complex
#: plane, all take the same 100 steps.
_MILLER_START = 100
#: Every _MILLER_RESCALE_EVERY steps the sweep rescales the entries with
#: |f_n| > _MILLER_RESCALE_AT by _MILLER_RESCALE_BY.  Above the tiny band
#: 2n/|z| < 2e8, so four steps grow |f| by at most about 1.6e33 and it stays
#: below 1.6e283 between tests.  The factor is an exact power of two, which
#: commutes with every + - * / of the sweep and of its normalisation, so when
#: an entry is rescaled changes no output bit.
_MILLER_RESCALE_AT = 1e250
_MILLER_RESCALE_EVERY = 4
_MILLER_RESCALE_BY = 2.0**-830


# --------------------------------------------------------------------------
# J/Y on the cut plane


def _jy01_tiny(z):
    """J0, J1, Y0, Y1 for |z| <= _JY_TINY_RADIUS: two terms of the ascending
    series (DLMF 10.2.2, 10.8.1).  With w = z^2/4 <= 2.5e-13 the next terms
    are below rounding, and the log and 1/z terms dominate, so nothing cancels."""
    w = 0.25 * z * z
    log_term = np.log(0.5 * z) + _GAMMA
    j0 = 1.0 - w
    j1 = 0.5 * z * (1.0 - 0.5 * w)
    y0_ = (2.0 / math.pi) * (log_term * j0 + w)
    y1_ = (2.0 / math.pi) * (log_term * j1 - 1.0 / z) - (z / (2.0 * math.pi)) * (1.0 - 1.25 * w)
    return j0, j1, y0_, y1_


def _miller_weights(start: int) -> list:
    """(n, a, b) for the step of Miller's sweep that makes f_m, m = n - 1.

    Even m = 2k >= 2: a = (-1)^k and b = (-1)^k / k, the weights of J_2k in
    the normalisation and Y0 sums.  Odd m = 2j + 1: a = (-1)^j and b, the
    weight of J_2j+1 in the Y1 sum, (-1)^(j+1) / (j+1) - (-1)^j / j with the
    second term only for j >= 1.  f_0 enters no sum.
    """
    rows = []
    for n in range(start, 0, -1):
        m = n - 1
        if m % 2:
            j = m // 2
            rows.append((n, float((-1) ** j), (-1) ** (j + 1) / (j + 1) - ((-1) ** j / j if j else 0.0)))
        else:
            k = m // 2
            rows.append((n, float((-1) ** k), (-1) ** k / k if k else 0.0))
    return rows


_MILLER_WEIGHTS = _miller_weights(_MILLER_START)


def _miller_sweep(two_over_z):
    """Miller's backward sweep at 2/z: (f_0, f_1, even, alt_even, alt_odd, y0_sum, y1_sum).

    f_{n-1} = (2n/z) f_n - f_{n+1} runs down from f_N = 1, f_{N+1} = 0 with
    the same N for every z.  The f_n are proportional to J_n(z); ``even``,
    ``alt_even`` and ``alt_odd`` are sum f_2k, sum (-1)^k f_2k and
    sum (-1)^j f_2j+1, and ``y0_sum`` and ``y1_sum`` the Neumann sums of
    :func:`_jy01_series`, all in one common scale.  The same loop serves a
    float64 and a complex128 ``two_over_z``.  Only the complex plane's
    normalisation e^{sz} reads the alternating sums, so a float64 sweep
    (the positive real axis) skips them and returns None for both; no
    other sum depends on them, so no output bit changes.
    """
    alternating = np.iscomplexobj(two_over_z)
    f_above, f = 0.0, 1.0
    even = y0_sum = y1_sum = 0.0
    alt_even = alt_odd = 0.0 if alternating else None
    for n, a, b in _MILLER_WEIGHTS:
        f_above, f = f, (n * two_over_z) * f - f_above  # f is now f_{n-1}
        if n % 2 == 0:
            if alternating:
                alt_odd = alt_odd + a * f
            y1_sum = y1_sum + b * f
        elif n > 1:
            even = even + f
            if alternating:
                alt_even = alt_even + a * f
            y0_sum = y0_sum + b * f
        if n % _MILLER_RESCALE_EVERY == 0:
            big = abs(f) > _MILLER_RESCALE_AT
            if big.any():
                # only the big entries: a complex times 1 + 0i can flip a zero's sign
                f, f_above, even, alt_even, alt_odd, y0_sum, y1_sum = (
                    None if v is None else np.where(big, v * _MILLER_RESCALE_BY, v)[()]
                    for v in (f, f_above, even, alt_even, alt_odd, y0_sum, y1_sum)
                )
    return f, f_above, even, alt_even, alt_odd, y0_sum, y1_sum


def _jy01_series(z):
    """J0, J1, Y0, Y1 for _JY_TINY_RADIUS < |z| <= SERIES_RADIUS by Miller's
    backward recurrence (Gil, Segura & Temme 2007, section 4.6).

    :func:`_miller_sweep` makes f_n proportional to J_n(z) and the sums that

    * normalise them: 1 = J0 + 2 sum J_2k on the real axis, which keeps
      Im J = Im Y = 0 there, and e^{sz} = J0 + 2 sum s^n J_n elsewhere, with
      s = -i sign(Im z) so that |e^{sz}| = e^{|Im z|} and the sum does not
      cancel;
    * enter Neumann's series (A&S 9.1.88)
      Y0 = (2/pi)(ln(z/2) + gamma) J0 - (4/pi) sum (-1)^k J_2k / k
      and its derivative, Y1 = -Y0' =
      -(2/(pi z)) J0 + (2/pi)(ln(z/2) + gamma) J1 + (2/pi) sum (-1)^k (J_2k-1 - J_2k+1) / k,
      which, unlike the Wronskian, keep full accuracy near the zeros of J0.
    """
    f, f_above, even, alt_even, alt_odd, y0_sum, y1_sum = _miller_sweep(2.0 / z)
    s = np.where(z.imag > 0.0, -1j, 1j)
    norm = np.where(z.imag == 0.0, f + 2.0 * even, (f + 2.0 * (alt_even + s * alt_odd)) * np.exp(-s * z))
    j0, j1 = f / norm, f_above / norm
    log_term = np.log(0.5 * z) + _GAMMA
    y0_ = (2.0 / math.pi) * (log_term * j0 - 2.0 * y0_sum / norm)
    y1_ = (2.0 / math.pi) * (log_term * j1 + y1_sum / norm - j0 / z)
    return j0, j1, y0_, y1_


def _jy01_series_real(z):
    """:func:`_jy01_series` for z = x + 0i, x > 0, swept in float64.

    Every imaginary part of the complex sweep is a zero there, so its real
    parts are float64 arithmetic, except that numpy divides complex numbers
    by Smith's method: (a + 0i)/(c + 0i) is a * (1/c), not a/c.  The
    normalisation multiplies by reciprocals to match, and the log stays
    numpy's complex one, which is not np.log of a real near |z| = 1, so the
    outputs are bit for bit the real parts of the complex sweep's; they are
    returned in float64, and :func:`_by_regime` adds the + 0i.  The negative
    real axis needs the log's i pi and stays complex.
    """
    inv_x = 1.0 / z.real
    f, f_above, even, _, _, y0_sum, y1_sum = _miller_sweep(2.0 * inv_x)
    inv = 1.0 / (f + 2.0 * even)
    j0, j1 = f * inv, f_above * inv
    log_term = np.log(0.5 * z).real + _GAMMA
    y0_ = (2.0 / math.pi) * (log_term * j0 - 2.0 * y0_sum * inv)
    y1_ = (2.0 / math.pi) * (log_term * j1 + y1_sum * inv - j0 * inv_x)
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


def _by_regime(x: np.ndarray, regime, evaluators: tuple, n_out: int):
    """Evaluate a family piecewise; evaluators[k] serves the entries with regime == k.

    ``regime`` has the shape of ``x``; for regimes bounded in |x| it is
    np.searchsorted(bounds, |x|), k where bounds[k-1] < |x| <= bounds[k], which
    puts NaN in the last.  A 0-d ``x`` runs only its own regime, on a numpy scalar.
    An array is split by mask and each regime fills its entries.  Each
    evaluator returns ``n_out`` values that cast to ``x``'s dtype, which
    they take on the way out: real values of a complex ``x`` become v + 0i.
    """
    if x.ndim == 0:
        return tuple(x.dtype.type(v) for v in evaluators[regime](x[()]))
    out = [np.empty_like(x) for _ in range(n_out)]
    for k, evaluate in enumerate(evaluators):
        mask = regime == k
        if np.any(mask):
            for o, val in zip(out, evaluate(x[mask])):
                o[mask] = val
    return tuple(out)


def _hankel(z, zinv, w, coeffs: np.ndarray, phase: float, amp):
    """J and Y of one order by its Hankel expansion P + iQ = sum coeffs[k] (i/z)^k, w = -1/z^2.

    P is the even part of the sum and Q its odd part over i.  Each temporary
    is dropped on return, so the caller holds only its arguments and results.
    """
    p, q = _asym_sum(coeffs[0::2], w), zinv * _asym_sum(coeffs[1::2], w)
    x = z - phase
    c, s = np.cos(x), np.sin(x)
    return amp * (c * p - s * q), amp * (s * p + c * q)


def _jy01_asymptotic(z: np.ndarray):
    """J0, J1, Y0, Y1 by the Hankel expansion, |z| > SERIES_RADIUS.

    Near the cut the expansion misses the subdominant exponential, so
    Re z < 0 is evaluated at -z and mapped back by DLMF 10.11.1-2:
    J0(z) = J0(-z), J1(z) = -J1(-z), Y0(z) = Y0(-z) + 2i s J0(-z) and
    Y1(z) = -(Y1(-z) + 2i s J1(-z)), with s the sign of Im z.  A numpy
    scalar ``z`` gives numpy scalars in every case.
    """
    if np.any(np.abs(z.imag) > EXPONENT_CAP):
        raise OverflowSaturation("Bessel argument beyond the exp(700) range")
    left = z.real < 0.0
    z = np.where(left, -z, z)[()]
    zinv = 1.0 / z
    w = -zinv * zinv
    amp = np.sqrt((2.0 / math.pi) * zinv)
    j0, y0_ = _hankel(z, zinv, w, _A0, 0.25 * math.pi, amp)
    j1, y1_ = _hankel(z, zinv, w, _A1, 0.75 * math.pi, amp)
    if np.any(left):
        # 2i s, s the sign of the argument's Im, which -z has flipped
        c = np.where(z.imag < 0.0, 2j, -2j)
        y0_ = np.where(left, y0_ + c * j0, y0_)[()]
        y1_ = np.where(left, -(y1_ + c * j1), y1_)[()]
        j1 = np.where(left, -j1, j1)[()]
    return j0, j1, y0_, y1_


def _jy01(z):
    """All four J/Y values: tiny-argument series, Miller's recurrence up to
    |z| = SERIES_RADIUS, in float64 on the positive real axis, and the Hankel
    expansion beyond."""
    z = np.asarray(z, dtype=complex)
    regime = np.searchsorted((_JY_TINY_RADIUS, SERIES_RADIUS), np.abs(z))
    regime = np.where((regime == 1) & (z.imag == 0.0) & (z.real > 0.0), 3, regime)
    return _by_regime(z, regime, (_jy01_tiny, _jy01_series, _jy01_asymptotic, _jy01_series_real), 4)


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
    s1 = np.full_like(x, 1.0 - 2.0 * _GAMMA)  # sum (H_k + H_{k+1} - 2g) w^k/(k!(k+1)!)
    h_k = 0.0
    h_next = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        t0 = t0 * w / (k * k)
        t1 = t1 * w / (k * (k + 1))
        h_k = h_next
        h_next = h_k + 1.0 / (k + 1)
        s0 = s0 + h_k * t0
        s1 = s1 + (h_k + h_next - 2.0 * _GAMMA) * t1
        if np.all(t0 + t1 <= 1e-18 * (np.abs(s0) + 1.0)):
            break
    k0 = -(lg + _GAMMA) * i0 + s0
    k1 = 1.0 / x + lg * i1 - 0.25 * x * s1
    return k0, k1


def _k01_quadrature(x: np.ndarray):
    """K0, K1 from the cosh integral representation by the trapezoid rule.

    The integrand exp(-x cosh u) cosh(nu u) is even and decays like a
    double exponential, so a uniform grid with step 0.15 is accurate to
    machine precision once truncated where the exponent has fallen by 60.
    Every x of the regime, x > 2, has fallen that far by the end of the
    fixed grid _K_QUAD_COSH, so each x sums the same terms in the same
    order whatever else is evaluated with it."""
    f = np.multiply.outer(x, _K_QUAD_COSH)
    np.negative(f, out=f)
    np.exp(f, out=f)
    f[..., 0] *= 0.5
    k0 = _K_QUAD_STEP * f.sum(axis=-1)
    f *= _K_QUAD_COSH
    k1 = _K_QUAD_STEP * f.sum(axis=-1)
    return k0, k1


def _k01_asymptotic(x: np.ndarray):
    """K0, K1 by DLMF 10.40.2: sqrt(pi/(2x)) e^{-x} sum a_k(nu) x^{-k}."""
    w = 1.0 / x
    amp = np.sqrt(0.5 * math.pi * w) * np.exp(-x)
    return amp * _asym_sum(_A0, w), amp * _asym_sum(_A1, w)


def _i01(x):
    """I0, I1 for 0 < x <= EXPONENT_CAP."""
    x = np.asarray(x, dtype=float)
    return _by_regime(x, np.searchsorted((SERIES_RADIUS,), np.abs(x)), (_i01_series, _i01_asymptotic), 2)


def _k01(x):
    """K0, K1 for x > 0 (three regimes: series, quadrature, asymptotic)."""
    x = np.asarray(x, dtype=float)
    regime = np.searchsorted((2.0, SERIES_RADIUS), np.abs(x))
    return _by_regime(x, regime, (_k01_series, _k01_quadrature, _k01_asymptotic), 2)


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


def _ik01(x):
    """I0, I1, K0, K1 for x > 0."""
    return _i01(x) + _k01(x)


def _bessel_family(branch: EigenvalueClass, lam: complex):
    """(evaluate, dtype, a, (d1, d2)) of the Bessel basis of ``lam``, of any class but Zero.

    The basis is b = C_1(a t)/t for the two families of ``evaluate``, which
    returns (C_0, C_1, D_0, D_1) at arguments a t of ``dtype``: J/Y with
    a = s = sqrt(lam), I/K with a = mu = sqrt(-lam).  Their derivatives are
    b' = d C_0(a t)/t - 2 C_1(a t)/t^2 by C_1'(z) = C_0(z) - C_1(z)/z for
    C in {J, Y, I} (d = a) and K_1'(z) = -K_0(z) - K_1(z)/z (d = -a).
    """
    if branch is EigenvalueClass.NEGATIVE_REAL:
        mu = math.sqrt(-lam.real)
        return _ik01, float, mu, (mu, -mu)
    s = math.sqrt(lam.real) if branch is EigenvalueClass.POSITIVE_REAL else complex(np.sqrt(complex(lam)))
    return _jy01, complex, s, (s, s)


def _basis(branch: EigenvalueClass, lam: complex, t: np.float64):
    """Basis values and derivatives (b1, b2, b1', b2') at one time, in numpy
    scalar arithmetic, which rounds complex products unlike arrays do;
    :func:`_fill_modal` is the same formulas in place on arrays."""
    evaluate, dtype, a, (d1, d2) = _bessel_family(branch, lam)
    c0, c1, e0, e1 = evaluate(a * t.astype(dtype))
    return c1 / t, e1 / t, d1 * c0 / t - 2.0 * c1 / t**2, d2 * e0 / t - 2.0 * e1 / t**2


def _fill_modal(c1, c2, d, bessel, ts: np.ndarray, y: np.ndarray, ydot: np.ndarray) -> None:
    """Write y = c1 b1 + c2 b2 and ydot = c1 b1' + c2 b2' at the times ``ts``
    into ``y`` and ``ydot``, from ``bessel`` = (C_0, C_1, D_0, D_1) at a ts.

    :func:`_basis`'s formulas in its order of operations, with b and b'
    overwriting C_1 and C_0.  A product of a complex scalar and an array
    is never formed in place: numpy rounds it as z s there on one-entry
    arrays, and z s is not s z.
    """
    t2 = ts**2
    for scale, f0, f1 in ((d[0], bessel[0], bessel[1]), (d[1], bessel[2], bessel[3])):
        tail = np.multiply(2.0, f1)
        tail /= t2
        lead = np.multiply(scale, f0)
        lead /= ts
        np.subtract(lead, tail, out=f0)  # b'
        f1 /= ts  # b
    b1p, b1, b2p, b2 = bessel
    np.multiply(c1, b1, out=y)
    y += c2 * b2
    np.multiply(c1, b1p, out=ydot)
    ydot += c2 * b2p


def make_modal_solution(
    lam: complex,
    t0: float,
    y0: complex,
    ydot0: complex,
) -> ModalSolution:
    """Match initial data (y0, ydot0) at t0 > 0 and return the closed form.

    The branch is chosen by :func:`nagdyn.spectral.classify_eigenvalue`
    at its default tolerance.  The 2x2 basis matrix at t0 has
    determinant 2/(pi t0^3) (J/Y pair) or -1/t0^3 (I/K pair), so it is
    singular only numerically: a basis that overflows at t0, or a computed
    determinant off the exact one by more than 1e-8 of it (cancellation of
    growing or oscillating terms, as for lam = 0.5 at t0 = 1e14 or
    lam = -3 + 0.1i at t0 = 10), raises :class:`~nagdyn.errors.SingularBasis`.
    """
    t0 = float(t0)
    if not (t0 > 0.0) or not math.isfinite(t0):
        raise DomainError("t0 must be positive and finite")
    lam = complex(lam)
    y0 = complex(y0)
    ydot0 = complex(ydot0)
    cls = classify_eigenvalue(lam)
    if cls.tag is EigenvalueClass.ZERO:
        # y = c1 + c2 t^{-2}: the finite limit is c1 = y0 + (t0/2) ydot0.
        c2 = -0.5 * ydot0 * t0**3
        c1 = y0 - c2 / t0**2
    else:
        if cls.rate * t0 > EXPONENT_CAP:
            raise OverflowSaturation("basis already saturated at t0")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # where the basis overflows at t0
            b1, b2, d1, d2 = map(complex, _basis(cls.tag, lam, np.float64(t0)))
        det = b1 * d2 - b2 * d1
        if not np.isfinite([b1, b2, d1, d2, det]).all():
            raise SingularBasis(f"basis overflowed at t0 = {t0:g}")
        # t0^3 det against its exact value; the Wronskian exact / t0^3 itself underflows at large t0
        exact = -1.0 if cls.tag is EigenvalueClass.NEGATIVE_REAL else 2.0 / math.pi
        scaled = det * t0 * t0 * t0
        if not abs(scaled - exact) <= 1e-8 * abs(exact):
            raise SingularBasis(f"basis Wronskian lost its digits at t0 = {t0:g}: t0^3 W is {scaled:.6g}, not {exact:.6g}")
        c1 = (y0 * d2 - ydot0 * b2) / det
        c2 = (ydot0 * b1 - y0 * d1) / det
    return ModalSolution(lam=lam, t0=t0, branch=cls.tag, rate=cls.rate, c1=c1, c2=c2)


def _modal_times(sol: ModalSolution, times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim == 0:
        ts = ts.reshape(1)
    if not np.all(np.isfinite(ts)):
        raise DomainError("evaluation times must be finite")
    if np.any(ts < sol.t0 * (1.0 - 1e-12)):
        raise DomainError("evaluation before t0 is outside the solution domain")
    return ts


def eval_modal_batch(sols, times) -> list[ModalSeries]:
    """:func:`eval_modal_series` of each solution over its own times, in one pass.

    ``sols`` and ``times`` pair up one to one; times may be shared.  The
    solutions of one Bessel branch share one call of its Bessel evaluators
    on their concatenated arguments, whose entries do not depend on one
    another, and each solution then applies its own scalars to its own
    slice, so every series is bit for bit its solution's evaluated alone.
    """
    sols = list(sols)
    tss = [_modal_times(sol, ts) for sol, ts in zip(sols, times, strict=True)]
    series = [
        ModalSeries(np.empty(ts.shape, complex), np.empty(ts.shape, complex), sol.rate * ts > EXPONENT_CAP)
        for sol, ts in zip(sols, tss)
    ]
    # per Bessel branch, each solution's unsaturated times and the first as
    # many entries of its outputs, which hold its values until the end
    branches: dict = {}
    for sol, ts, (y, ydot, saturated) in zip(sols, tss, series):
        if sol.branch is EigenvalueClass.ZERO:
            y[...] = sol.c1 + sol.c2 / ts**2
            ydot[...] = -2.0 * sol.c2 / ts**3
        else:
            ts = ts[~saturated]
            branches.setdefault(sol.branch, []).append((sol, ts, y.reshape(-1)[: ts.size], ydot.reshape(-1)[: ts.size]))
    for members in branches.values():
        families = [_bessel_family(sol.branch, sol.lam) for sol, *_ in members]
        evaluate, dtype = families[0][:2]
        edges = np.cumsum([0] + [ts.size for _, ts, _, _ in members])
        spans = list(zip(edges, edges[1:]))
        args = np.empty(edges[-1], dtype)
        for (_, ts, _, _), (_, _, a, _), (lo, hi) in zip(members, families, spans):
            np.multiply(a, ts, out=args[lo:hi])
        bessel = evaluate(args)
        for (sol, ts, y, ydot), (_, _, _, d), (lo, hi) in zip(members, families, spans):
            _fill_modal(sol.c1, sol.c2, d, [v[lo:hi] for v in bessel], ts, y, ydot)
    sentinel = math.exp(EXPONENT_CAP)
    for y, ydot, saturated in series:
        if saturated.any():
            ok = ~saturated
            for v in (y, ydot):
                v[ok] = v.reshape(-1)[: np.count_nonzero(ok)].copy()
                v[saturated] = sentinel
    return series


def eval_modal_series(sol: ModalSolution, times) -> ModalSeries:
    """Evaluate (y, ydot) over an array of finite times t >= t0.

    Where the growing factor would exceed exp(EXPONENT_CAP) the entries
    are replaced by a finite sentinel of magnitude exp(EXPONENT_CAP) and
    flagged in ``saturated`` instead of overflowing to inf/NaN.
    """
    return eval_modal_batch([sol], [times])[0]


def eval_modal(sol: ModalSolution, t: float) -> ModalValue:
    """Evaluate one time point; see :func:`eval_modal_series`."""
    series = eval_modal_series(sol, np.array([float(t)]))
    return ModalValue(complex(series.y[0]), complex(series.ydot[0]), bool(series.saturated[0]))
