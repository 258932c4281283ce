"""Fixed-step integrators for the accelerated and first-order flows.

All simulators use classical RK4 on the uniform grid t_k = t0 + k dt,
evaluating the time-varying damping coefficient r/t at the substage
times t, t + dt/2, t + dt.  The vector flows run the stage form in
``_rk4``; the scalar modal equation runs ``_modal_rk4``, which folds
each step into its exact 2x2 step map and integrates a whole batch of
eigenvalues at once.  Trajectories whose position norm passes 1e150 (or
turns non-finite) are truncated at the last good sample and flagged
``saturated`` rather than poisoning the record with infinities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonFiniteField

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "simulate_nagd",
    "simulate_first_order",
    "simulate_modal",
    "simulate_smooth_nagd",
    "finite_difference_jacobian",
]

#: Position-norm guard beyond which integration truncates.
OVERFLOW_NORM = 1e150


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid and damping parameters for one run.

    ``record_stride`` keeps every k-th step (plus the initial sample), so
    a run of n_steps steps records n_steps // record_stride + 1 rows.
    """

    t0: float = 1.0
    t_end: float = 100.0
    dt: float = 0.01
    damping_exponent: float = 3.0
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ValueError("t0 must be positive (the damping blows up at t = 0)")
        if not (math.isfinite(self.t_end) and self.t_end > self.t0):
            raise ValueError("t_end must exceed t0")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise ValueError("record_stride must be a positive integer")
        if self.n_steps < 1:
            raise ValueError("the grid contains no steps; shrink dt or extend t_end")
        if self.n_steps > 10**8:
            raise ValueError("more than 1e8 steps requested; coarsen dt")
        if self.damping_exponent <= 1.0:
            warnings.warn(
                "damping exponent <= 1 is outside the guaranteed-convergence regime",
                stacklevel=2,
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t0) / self.dt))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Recorded samples of one run.

    ``q`` and ``v`` have shape (M, n) for vector flows and (M,) complex
    for scalar modal runs.  For first-order runs ``v`` holds dx/dt.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    saturated: bool
    meta: dict

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


def _rk4(
    f: Callable,
    config: IntegratorConfig,
    s0: np.ndarray,
    norm_sq: Callable[[np.ndarray], float],
) -> tuple[np.ndarray, np.ndarray, bool]:
    n_steps = config.n_steps
    stride = config.record_stride
    n_rec = n_steps // stride + 1
    times = np.empty(n_rec)
    states = np.empty((n_rec,) + s0.shape, dtype=s0.dtype)
    times[0] = config.t0
    states[0] = s0
    filled = 1
    s = s0
    t0, dt = config.t0, config.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    guard = OVERFLOW_NORM * OVERFLOW_NORM
    saturated = False
    for k in range(n_steps):
        t = t0 + k * dt
        k1 = f(t, s)
        k2 = f(t + half, s + half * k1)
        k3 = f(t + half, s + half * k2)
        k4 = f(t + dt, s + dt * k3)
        s = s + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        qn = norm_sq(s)
        if not (qn <= guard):  # catches NaN as well
            saturated = True
            break
        if (k + 1) % stride == 0:
            times[filled] = t0 + (k + 1) * dt
            states[filled] = s
            filled += 1
    return times[:filled], states[:filled], saturated


def _check_system(matrix, offset, q0, v0):
    g = np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("matrix must be square")
    n = g.shape[0]
    b = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    q = np.asarray(q0, dtype=float)
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    for name, vec in (("offset", b), ("q0", q), ("v0", v)):
        if vec.shape != (n,):
            raise ValueError(f"{name} must have length {n}")
    if not all(np.all(np.isfinite(a)) for a in (g, b, q, v)):
        raise ValueError("matrix, offset and initial data must be finite")
    return g, b, q, v


def simulate_nagd(matrix, offset, q0, v0=None, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate x'' + (r/t) x' + G x + b = 0 from (q0, v0)."""
    g, b, q, v = _check_system(matrix, offset, q0, v0)
    n = g.shape[0]
    lin = np.zeros((2 * n, 2 * n))
    lin[:n, n:] = np.eye(n)
    lin[n:, :n] = -g
    const = np.concatenate([np.zeros(n), -b])
    r = config.damping_exponent

    def f(t, s):
        out = lin @ s + const
        out[n:] -= (r / t) * s[n:]
        return out

    s0 = np.concatenate([q, v])
    times, states, saturated = _rk4(f, config, s0, lambda s: float(s[:n] @ s[:n]))
    return TrajectoryRecord(
        times=times,
        q=states[:, :n],
        v=states[:, n:],
        saturated=saturated,
        meta={"kind": "nagd", "config": config},
    )


def simulate_first_order(matrix, offset, x0, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate the plain pseudo-gradient flow x' = -(G x + b)."""
    g, b, x, _ = _check_system(matrix, offset, x0, None)

    def f(t, s):
        return -(g @ s) - b

    times, states, saturated = _rk4(f, config, x.copy(), lambda s: float(s @ s))
    xdot = -(states @ g.T) - b
    return TrajectoryRecord(
        times=times,
        q=states,
        v=xdot,
        saturated=saturated,
        meta={"kind": "first-order", "config": config},
    )


#: Steps x points per chunk of step maps in :func:`_modal_rk4`.  The maps,
#: the state history and their temporaries are about a dozen complex
#: arrays of this size, so the working set stays near 12 MiB.
_MODAL_CHUNK_CELLS = 2**16
#: Most steps per chunk, reached for batches of 16 points or fewer.
_MODAL_STEP_CHUNK = 4096


def _modal_step_maps(lam: np.ndarray, t: np.ndarray, h: float, r: float) -> np.ndarray:
    """RK4 step maps [y, y']_{k+1} = M_k [y, y']_k of y'' + (r/t) y' + lam y = 0.

    ``t`` holds the step start times (T,) and ``lam`` the points (P,).
    The result has shape (T, 2, 2, P) and is stored by columns: entry
    [k, j, i, p] is M_k[i, j] of point p.  Expanding the four stages, with
    damping d_i = h r / t_i at t, t + h/2 and t + h, makes each entry a
    quadratic in z = h^2 lam.  RK4 is linear in the state, so the map is
    exact algebra, not an approximation of the stage form.
    """
    d1 = (h * (r / t))[:, None]
    d2 = (h * (r / (t + 0.5 * h)))[:, None]
    d3 = (h * (r / (t + h)))[:, None]
    z = (h * h) * lam
    z24 = z / 24.0
    sq = d2 * d2
    p4 = sq - 2.0 * d2 + 4.0
    p12 = sq - 4.0 * d2 + 12.0
    m = np.empty((t.shape[0], 2, 2, lam.shape[0]), dtype=complex)
    m[:, 0, 0] = 1.0 + z * (z24 - p12 / 24.0)
    m[:, 1, 0] = (h / 24.0) * ((d1 + d2 - 4.0) * z + 2.0 * p12 - d1 * p4)
    m[:, 0, 1] = (z / (24.0 * h)) * (d3 * p4 - 2.0 * p12 - (d2 + d3 - 4.0) * z)
    c11 = (d1 * d3 * sq - 2.0 * (d1 + d3) * (p4 - 2.0) + 4.0 * (p12 - 6.0)) / 24.0
    b11 = (d1 * d3 + (d1 + d3) * (d2 - 2.0) - 4.0 * d2 + 12.0) / 24.0
    m[:, 1, 1] = c11 + z * (z24 - b11)
    return m


def _modal_rk4(lams, y0, ydot0, config: IntegratorConfig):
    """RK4 for the modal equation y'' + (r/t) y' + lam y = 0, one lane per lam.

    Returns ``(times, q, v, rows, saturated)``: ``q`` and ``v`` have shape
    (n_rec, B), and lane p's record is ``q[:rows[p], p]``.  As in
    :func:`_rk4`, the guard |y| <= 1e150 is checked after every step; a
    lane that fails it is flagged in ``saturated`` and keeps only the rows
    recorded before that step.  A lane's values past its ``rows`` are
    undefined.  Time is cut into chunks whose step maps are built with
    whole-array operations, so each step costs one 2x2 complex
    matrix-vector product over the batch.
    """
    lam = np.asarray(lams, dtype=complex).ravel()
    b = lam.shape[0]
    s = np.empty((2, b), dtype=complex)
    s[0], s[1] = y0, ydot0
    n_steps, stride = config.n_steps, config.record_stride
    t0, h, r = config.t0, config.dt, config.damping_exponent
    n_rec = n_steps // stride + 1
    times = t0 + (np.arange(n_rec) * stride) * h
    q = np.empty((n_rec, b), dtype=complex)
    v = np.empty((n_rec, b), dtype=complex)
    q[0], v[0] = s
    rows = np.full(b, n_rec)
    alive = np.ones(b, dtype=bool)
    guard = OVERFLOW_NORM * OVERFLOW_NORM
    chunk = max(1, min(_MODAL_STEP_CHUNK, _MODAL_CHUNK_CELLS // max(b, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, chunk):
            if not alive.any():
                break
            m = _modal_step_maps(lam, t0 + np.arange(start, min(start + chunk, n_steps)) * h, h, r)
            # states[k] is [y, y'] after step j = start + k + 1
            states = np.empty((m.shape[0], 2, b), dtype=complex)
            for col0, col1, out in zip(m[:, 0], m[:, 1], states):
                np.add(col0 * s[0], col1 * s[1], out=out)
                s = out
            bad = ~(np.abs(states[:, 0]) ** 2 <= guard) & alive
            failed = np.flatnonzero(bad.any(axis=0))
            if failed.size:
                j_fail = start + 1 + bad[:, failed].argmax(axis=0)
                rows[failed] = (j_fail - 1) // stride + 1
                alive[failed] = False
            first = -(start + 1) % stride  # local index of the first recorded step
            kept = states[first::stride]
            row = (start + 1 + first) // stride
            q[row : row + kept.shape[0]] = kept[:, 0]
            v[row : row + kept.shape[0]] = kept[:, 1]
    return times, q, v, rows, ~alive


def simulate_modal(lam: complex, y0: complex, ydot0: complex, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate the scalar modal equation y'' + (r/t) y' + lam y = 0."""
    lam = complex(lam)
    times, q, v, rows, saturated = _modal_rk4([lam], complex(y0), complex(ydot0), config)
    n = int(rows[0])
    return TrajectoryRecord(
        times=times[:n],
        q=q[:n, 0],
        v=v[:n, 0],
        saturated=bool(saturated[0]),
        meta={"kind": "modal", "lam": lam, "config": config},
    )


def simulate_smooth_nagd(field: Callable, x0, v0=None, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate x'' + (r/t) x' + F(x) = 0 for a smooth pseudo-gradient F.

    The field is probed once at x0 to fix the dimension; any non-finite
    field value raises :class:`~nagdyn.errors.NonFiniteField` with the
    offending time in the message.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("x0 must be a vector")
    n = x.shape[0]
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"v0 must have length {n}")
    probe = np.asarray(field(x), dtype=float)
    if probe.shape != (n,):
        raise ValueError("field(x0) must return a vector matching x0")
    r = config.damping_exponent

    def f(t, s):
        fx = np.asarray(field(s[:n]), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise NonFiniteField(f"field returned a non-finite value near t = {t:.6g}")
        out = np.empty(2 * n)
        out[:n] = s[n:]
        out[n:] = -fx - (r / t) * s[n:]
        return out

    s0 = np.concatenate([x, v])
    times, states, saturated = _rk4(f, config, s0, lambda s: float(s[:n] @ s[:n]))
    return TrajectoryRecord(
        times=times,
        q=states[:, :n],
        v=states[:, n:],
        saturated=saturated,
        meta={"kind": "smooth-nagd", "config": config},
    )


def finite_difference_jacobian(field: Callable, x_star, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector field at x_star."""
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be positive")
    x = np.asarray(x_star, dtype=float)
    n = x.shape[0]
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        jac[:, j] = (np.asarray(field(x + e), dtype=float) - np.asarray(field(x - e), dtype=float)) / (2.0 * step)
    return jac
