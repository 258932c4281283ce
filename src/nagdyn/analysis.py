"""Trajectory diagnostics: modal projections, rate fits, certificates.

Everything here consumes recorded trajectories (or raw sample arrays)
and produces the quantities the theory makes claims about: per-mode
scalar series, fitted envelope rates, the Lyapunov certificate for
symmetric positive semidefinite interactions, Chetaev-type instability
certificates for negative-real and complex spectra, the conserved-flux
identity for complex modes, and distances to the interaction null space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TrajectoryRecord
from .errors import InsufficientPoints, NonPositiveSeries, NotApplicable, TrivialNullspace
from .spectral import EigenvalueClass, fit_recipe, matrix_tolerance

__all__ = [
    "RateFit",
    "LyapunovSeries",
    "ChetaevNegative",
    "ChetaevComplex",
    "NullspaceDistance",
    "modal_project",
    "fit_rate",
    "lyapunov_series",
    "chetaev_negative",
    "chetaev_complex",
    "energy_identity_residual",
    "distance_to_nullspace",
]

#: The time from which an envelope fit runs, once the transient has died out.
FIT_START = 20.0


def _fd_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Five-point centered first derivative on a uniform grid.

    The two samples at each end fall back to lower-order one-sided
    stencils; callers that need the full fourth-order accuracy should
    restrict to the interior slice [2:-2].
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values)
    if t.shape[0] != y.shape[0]:
        raise ValueError("times and values must have equal length")
    if t.shape[0] < 5:
        raise InsufficientPoints("five-point differentiation needs at least 5 samples")
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-8, atol=1e-12 * abs(h)):
        raise ValueError("five-point differentiation requires a uniform grid")
    out = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    out[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    out[1] = (y[2] - y[0]) / (2.0 * h)
    out[-2] = (y[-1] - y[-3]) / (2.0 * h)
    out[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return out


# --------------------------------------------------------------------------
# modal projection


def modal_project(record: TrajectoryRecord, left_vector) -> tuple[np.ndarray, np.ndarray]:
    """Scalar modal series (y, ydot) = (w^* q, w^* v) for a left eigenvector.

    With w^* G = lam w^*, the projected series solves the scalar modal
    equation for lam exactly, which is what makes closed-form checks of
    vector simulations possible.
    """
    w = np.asarray(left_vector)
    if record.q.ndim != 2:
        raise ValueError("modal projection expects a vector trajectory")
    if w.shape != (record.q.shape[1],):
        raise ValueError("left eigenvector length must match the state dimension")
    wc = np.conj(w)
    return record.q @ wc, record.v @ wc


# --------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log |y| against log t or t."""

    kind: str
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int
    envelope: bool
    detrend_log_power: float


def fit_rate(
    times,
    values,
    kind: str = "algebraic",
    window: tuple[float, float] | None = None,
    envelope: bool = False,
    detrend_log_power: float = 0.0,
) -> RateFit:
    """Fit an envelope rate on a time window.

    kind="algebraic" regresses log y on log t (slope is the power);
    kind="exponential" regresses log y on t (slope is the rate).  With
    ``envelope=True`` the fit uses the strict local maxima of |values|,
    which is how oscillatory series must be measured.  A nonzero
    ``detrend_log_power`` p divides the series by t^p first; ``spectral.fit_recipe`` has the keywords of each class.

    The rates are asymptotic, so by default a fit runs from ``FIT_START``
    (t = 20), or from the record's first time if that is later, to the
    record's last time.  An explicit ``window`` is clamped to the record in
    the same way.  A record that ends before the window opens, as a
    saturated one can, raises :class:`~nagdyn.errors.InsufficientPoints`.
    """
    if kind not in ("algebraic", "exponential"):
        raise ValueError("kind must be 'algebraic' or 'exponential'")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if t.shape[0] == 0:
        raise InsufficientPoints("the record is empty")
    lo, hi = (FIT_START, t[-1]) if window is None else window
    lo, hi = max(float(lo), float(t[0])), min(float(hi), float(t[-1]))
    if t[-1] < lo:
        raise InsufficientPoints(f"the record ends at t = {t[-1]:g}, before the fit window starts at {lo:g}")
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 5:
        raise InsufficientPoints(f"window [{lo:g}, {hi:g}] contains {int(mask.sum())} samples")
    t = t[mask]
    y = y[mask]
    lo, hi = float(t[0]), float(t[-1])
    if envelope:
        a = np.abs(y)
        peaks = np.flatnonzero((a[1:-1] > a[:-2]) & (a[1:-1] > a[2:])) + 1
        if peaks.shape[0] < 5:
            raise InsufficientPoints(f"only {peaks.shape[0]} envelope maxima in the window")
        t = t[peaks]
        y = a[peaks]
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise NonPositiveSeries("series must be finite and positive where fitted")
    ly = np.log(y) - detrend_log_power * np.log(t)
    x = np.log(t) if kind == "algebraic" else t
    slope, intercept = np.polyfit(x, ly, 1)
    resid = ly - (slope * x + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return RateFit(
        kind=kind,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        window=(lo, hi),
        n_points=int(t.shape[0]),
        envelope=envelope,
        detrend_log_power=float(detrend_log_power),
    )


# --------------------------------------------------------------------------
# Lyapunov certificate (symmetric positive semidefinite interactions)


@dataclass(frozen=True)
class LyapunovSeries:
    """V(t) = (t^2/2) q^T G q + (1/2) ||t v + 2 q||^2 along a trajectory.

    For symmetric G the analytic derivative is -t q^T G q <= 0 whenever
    G is positive semidefinite.  Without both hypotheses the certificate
    does not apply: ``applicable`` is False and ``obstruction`` names the
    one that fails, "not symmetric" (checked first) or "not positive
    semidefinite".  Both are judged within ``spectral.matrix_tolerance(G)``,
    as the spectral verdict is: ||G - G^T||_F and the most negative
    eigenvalue of G may reach it.  ``skew_residual`` carries
    t^2 v^T (G - G^T) q, the term a non-symmetric G would add to the
    derivative.
    ``vdot_numeric`` is a five-point finite difference of V (edges at
    reduced order, see the interior slice [2:-2]).  It is taken only when
    the certificate applies, and is None otherwise, so a failed hypothesis
    is reported on a record of any length.
    """

    times: np.ndarray
    V: np.ndarray
    vdot_analytic: np.ndarray
    vdot_numeric: np.ndarray | None
    applicable: bool
    skew_residual: np.ndarray
    obstruction: str = ""


def lyapunov_series(record: TrajectoryRecord, matrix) -> LyapunovSeries:
    g = np.asarray(matrix, dtype=float)
    if record.q.ndim != 2 or record.q.shape[1] != g.shape[0]:
        raise ValueError("trajectory and matrix dimensions do not match")
    t = record.times
    q, v = record.q, record.v
    qgq = np.einsum("ij,ij->i", q @ g.T, q)
    shifted = t[:, None] * v + 2.0 * q
    vv = 0.5 * t**2 * qgq + 0.5 * np.einsum("ij,ij->i", shifted, shifted)
    vdot = -t * qgq
    skew = np.einsum("ij,ij->i", v @ (g - g.T), q) * t**2
    tol = matrix_tolerance(g)
    if float(np.linalg.norm(g - g.T)) > tol:
        obstruction = "not symmetric"
    elif float(np.linalg.eigvalsh(g)[0]) < -tol:
        obstruction = "not positive semidefinite"
    else:
        obstruction = ""
    return LyapunovSeries(
        times=t,
        V=vv,
        vdot_analytic=vdot,
        vdot_numeric=None if obstruction else _fd_derivative(t, vv),
        applicable=not obstruction,
        skew_residual=skew,
        obstruction=obstruction,
    )


# --------------------------------------------------------------------------
# Chetaev certificates


@dataclass(frozen=True)
class ChetaevNegative:
    """Instability certificate series for a negative eigenvalue -mu^2.

    xi = v^T q and zeta = v^T v for a unit left eigenvector v of the
    eigenvalue; W = xi zeta + (mu/3) xi^2 - xi^2 / (2 t) grows at least
    like exp(mu t / 6) while the trajectory stays in the cone
    Omega = {xi > 0, zeta > mu xi / 3}, provided t0 >= 6/mu + 1.
    ``growth_ratio`` is the centered-difference logarithmic derivative
    of W (NaN where W <= 0).
    """

    times: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    W: np.ndarray
    in_omega: np.ndarray
    growth_ratio: np.ndarray
    mu: float
    t0_required: float
    meets_entry_condition: bool


def _project_real(record: TrajectoryRecord, vec) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(vec)
    if np.iscomplexobj(v):
        if float(np.abs(v.imag).max()) > 1e-9 * float(np.abs(v).max()):
            raise ValueError("expected a real (realifiable) eigenvector")
        v = v.real
    if record.q.ndim != 2 or v.shape != (record.q.shape[1],):
        raise ValueError("eigenvector length must match the state dimension")
    return record.q @ v, record.v @ v


def chetaev_negative(record: TrajectoryRecord, eigvec, mu: float) -> ChetaevNegative:
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be positive")
    xi, zeta = _project_real(record, eigvec)
    t = record.times
    if t.shape[0] < 2:
        raise InsufficientPoints("the growth ratio of W needs at least 2 samples")
    w = xi * zeta + (mu / 3.0) * xi**2 - xi**2 / (2.0 * t)
    in_omega = (xi > 0.0) & (zeta > mu * xi / 3.0)
    ok = w > 0.0
    lw = np.where(ok, np.log(np.where(ok, w, 1.0)), np.nan)
    # centered 3-point log-derivative; ends one-sided
    ratio = np.gradient(lw, t[1] - t[0])
    t0_req = 6.0 / mu + 1.0
    return ChetaevNegative(
        times=t,
        xi=xi,
        zeta=zeta,
        W=w,
        in_omega=in_omega,
        growth_ratio=ratio,
        mu=float(mu),
        t0_required=t0_req,
        meets_entry_condition=bool(t[0] >= t0_req - 1e-12),
    )


@dataclass(frozen=True)
class ChetaevComplex:
    """Rotating-plane projection for a strictly complex eigenvalue.

    xi and eta are the projections onto the real and imaginary parts of
    the left eigenvector w = u + i v; rho = |w^* q| = hypot(xi, eta)
    grows like exp(beta t) t^{-r/2} at damping r/t, with beta = Im sqrt(lam),
    and ``fit`` measures beta on ``fit_rate``'s default window, from t = 20
    to the end of the record, with the envelope power detrended.
    """

    times: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    fit: RateFit


def chetaev_complex(record: TrajectoryRecord, left_vector, r: float = 3.0) -> ChetaevComplex:
    w = np.asarray(left_vector, dtype=complex)
    if record.q.ndim != 2 or w.shape != (record.q.shape[1],):
        raise ValueError("left eigenvector length must match the state dimension")
    t = record.times
    xi = record.q @ w.real
    eta = record.q @ w.imag
    rho = np.hypot(xi, eta)
    fit = fit_rate(t, rho, **fit_recipe(EigenvalueClass.STRICTLY_COMPLEX, r))
    return ChetaevComplex(times=t, xi=xi, eta=eta, rho=rho, fit=fit)


# --------------------------------------------------------------------------
# conserved-flux identity for complex modes


def energy_identity_residual(times, y, ydot, lam: complex, r: float = 3.0) -> float:
    """RMS residual of d/dt (t^r Q) = 2i Im(lam) t^r |y|^2, Q = y y*' - y' y*, at damping r/t.

    Real eigenvalues make both sides vanish identically and carry no
    information, so they raise :class:`~nagdyn.errors.NotApplicable`.
    The derivative is a five-point centered difference; only interior
    samples enter the residual.  Each sample is normalized by
    max(1, |rhs|) before the RMS.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise NotApplicable("the flux identity is trivial for real eigenvalues")
    t = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=complex)
    yd = np.asarray(ydot, dtype=complex)
    if not (t.shape == y.shape == yd.shape):
        raise ValueError("times, y and ydot must have equal shapes")
    quad = y * np.conj(yd) - yd * np.conj(y)
    flux = t**r * quad
    lhs = _fd_derivative(t, flux)
    rhs = 2.0j * lam.imag * t**r * np.abs(y) ** 2
    sl = slice(2, -2)
    num = np.abs(lhs[sl] - rhs[sl])
    den = np.maximum(1.0, np.abs(rhs[sl]))
    rel = num / den
    return float(np.sqrt(np.mean(rel**2)))


# --------------------------------------------------------------------------
# null-space distance


@dataclass(frozen=True)
class NullspaceDistance:
    """Distance from q(t) to ker G, with the orthonormal basis used."""

    times: np.ndarray
    distance: np.ndarray
    nullspace_dim: int
    basis: np.ndarray


def distance_to_nullspace(record: TrajectoryRecord, matrix) -> NullspaceDistance:
    """Pointwise distance ||q - Pi_ker q||; raises TrivialNullspace if ker G = 0.

    The null space is spanned by the right singular vectors whose singular
    values are at most ``spectral.matrix_tolerance(G)``, the tolerance
    within which the spectral verdict calls an eigenvalue zero.
    """
    g = np.asarray(matrix, dtype=float)
    if record.q.ndim != 2 or record.q.shape[1] != g.shape[0]:
        raise ValueError("trajectory and matrix dimensions do not match")
    _, sv, vt = np.linalg.svd(g)
    dim = int(np.sum(sv <= matrix_tolerance(g)))
    if dim == 0:
        raise TrivialNullspace("matrix has full rank; there is no null space to track")
    basis = vt[g.shape[0] - dim :].T  # orthonormal columns spanning ker G
    coords = record.q @ basis
    proj = coords @ basis.T
    dist = np.linalg.norm(record.q - proj, axis=1)
    return NullspaceDistance(times=record.times, distance=dist, nullspace_dim=dim, basis=basis)
