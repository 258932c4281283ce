"""Fixed-step integrators for the accelerated and first-order flows.

All simulators use classical RK4 on the uniform grid t_k = t0 + k dt,
evaluating the time-varying damping coefficient r/t at the substage
times t, t + dt/2, t + dt.  One chunked loop, ``_drive``, runs every one of
them: it cuts the grid into chunks of steps, hands each chunk to the
simulator's ``advance`` function, and applies the recording policy
(stride, the 1e150 guard, truncation) to the states that come back.
Trajectories whose position norm passes 1e150 (or turns non-finite) are
truncated at the last good sample and flagged ``saturated`` rather than
poisoning the record with infinities.

On a linear flow RK4 multiplies only by G and by scalars, so each step is
an exact polynomial map; ``_step_coefficients`` gives, per step, the
scalar coefficients of I, Z and Z^2 (Z = dt^2 G) in each block of the map
of x'' + (r/t) x' + G x = 0.  The four ``advance`` functions are:

- ``simulate_nagd``: the step maps applied to the state [x; 1], [x'; 0],
  whose augmented matrix [[G, b], [0, 0]] makes the offset b exact, at
  three small BLAS products per step;
- ``simulate_first_order``: the time-invariant map
  R(-dt G~) = sum_{k<=4} (-dt G~)^k / k!, built once per run and applied
  as R - I, at one BLAS product and one add per step;
- ``_modal_rk4``: the maps evaluated at z = dt^2 lam, one 2x2 map per
  eigenvalue, so a whole batch of eigenvalues runs as lanes of one run,
  at one multiply and one add over the batch per step;
- ``simulate_smooth_nagd``: the stage form, the only one that calls a
  user field.  It runs in chunks like the linear flows but checks the
  guard inside its step, before the field sees the next state, so a
  trajectory that saturates is reported as saturated, not as a field
  that overflowed past it.

Each integrator steps through buffers allocated once per run and sized by
one rule, ``_chunk_steps``: a chunk holds at most ``_CHUNK_STEPS`` steps
and at most ``_CHUNK_CELLS`` numbers of state, steps x state width, so a
wide system or a large batch of modes takes shorter chunks.  The three
linear loops step through a ring with one more slot than the chunk has
steps: step k reads slot k and writes its state straight into slot k + 1.
Beside the ring lie the chunk's step coefficients (``simulate_nagd``) or
step maps (``_modal_rk4``), which each chunk fills in place, and a list,
built with the ring, of one tuple of views per step: its coefficients or
map and its ring slots.  ``advance`` returns a view of the states it took,
and ``_drive`` records straight from that view, so a state is copied only
into the record.  The augmented entries of the state [x; 1], [x'; 0] are
set once when the ring is allocated: every step reproduces them exactly,
so the view and the record hold only x and x'.

A step is its products and nothing else: ``np.ndarray.dot``,
``np.multiply`` and ``np.add``, bound to names once and called with
positional outputs.  On a shared 2-vCPU Xeon VM, ``np.ndarray.dot(a, g, o)``
on a 2x5 state took 0.43 us against 0.47 us for ``a.dot(g, out=o)``,
``np.multiply(m, c, p)`` on a 9-lane modal step 1.19 us against 1.29 us
with ``out=p``, and taking the next step's views from the prebuilt list
7 ns against 70 ns for a fresh view of a chunk array.  The fastest of 30
whole runs took 1.9 us a step for ``simulate_nagd`` at n = 4 (50 000
steps, recording included) and 3.0 us for a 9-lane ``_modal_rk4`` batch
(5 900 steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "check_rk4_step",
]

#: Position-norm guard beyond which integration truncates.
OVERFLOW_NORM = 1e150


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid and damping parameters for one run.

    ``record_stride`` keeps every k-th step (plus the initial sample), so
    a run of n_steps steps records n_steps // record_stride + 1 rows.
    ``n_steps`` rounds (t_end - t0) / dt to the nearest integer, so the
    last grid time t0 + n_steps dt can miss t_end by up to dt/2:
    ``t0=0.001, t_end=50`` ends at 50.001.  A ``damping_exponent`` <= 0,
    where the spectral verdicts do not hold, is refused; one in (0, 1],
    outside the guaranteed-convergence regime, is accepted, and a run of
    ``experiments.run_experiment`` notes it in its summary.
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
            raise ValueError("t_end must be finite and exceed t0")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        # checked before n_steps is read: a span that overflows to inf
        # cannot be rounded to an int
        if not (self.t_end - self.t0) / self.dt <= 1e8:
            raise ValueError("more than 1e8 steps requested; coarsen dt")
        # the verdicts assume damping: at r <= 0 a positive mode does not decay
        if not (math.isfinite(self.damping_exponent) and self.damping_exponent > 0.0):
            raise ValueError("damping_exponent must be finite and positive; the verdicts assume r > 0")
        # bool is an int subclass, and True would silently mean stride 1; the
        # bound on the steps also bounds the stride, whose multiples index
        # the grid in C integers
        stride = self.record_stride
        if not (isinstance(stride, int) and not isinstance(stride, bool) and 1 <= stride <= 10**8):
            raise ValueError("record_stride must be an integer from 1 to 1e8")
        if self.n_steps < 1:
            raise ValueError("the grid contains no steps; shrink dt or extend t_end")

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


#: Each RK4 loop runs in chunks of at most ``_CHUNK_STEPS`` steps and at
#: most ``_CHUNK_CELLS`` numbers of state, steps x state width (see
#: :func:`_chunk_steps`).  A chunk pays a fixed cost, its step coefficients
#: (about 45 us at 256 steps) and ``_drive``'s guard and record, and each
#: step a tuple of prebuilt views, which the cap in steps bounds.  In 25 s
#: runs of the simulate benchmark on a shared 2-vCPU VM (seeds 21 and 22),
#: peak RSS read 60.63-60.76 MiB at a 512-step cap, 59.75-59.90 at 384 and
#: 59.81-59.89 at 256, and ``run_s`` 0.484-0.493, 0.489 and 0.495-0.497 s;
#: the check benchmark's peak RSS read 45.75-45.87 MiB at 512 and
#: 45.34-45.50 at 384.
#:
#: The cells bind only wide runs, none of the benchmark's: accelerated
#: games of more than 41 players and modal batches of more than 42 lanes,
#: such as a measured sweep's 128-lane batches.  On the same VM, fastest
#: of 21-41 interleaved calls in three sets, at 2**13, 2**14 and 2**15
#: cells: a 128-lane batch of 5 900 steps took 46.7-53.2, 43.0-44.1 and
#: 41.0-44.3 ms (32-, 64- and 128-step chunks); ``simulate_nagd`` at
#: n = 60 (20 000 steps) 63.8-79.2, 54.2-71.2 and 50.6-66.4 ms (67, 134
#: and 268 steps), and at n = 40 48.9-52.1, 44.6-45.2 and 42.8-43.3 ms
#: (99, 199 and 384 steps).  The price is memory on large measured sweeps:
#: in a fresh process, ``sweep --grid=-2:6:41,-3:3:61 --measure`` peaked
#: at 82.4-82.5, 82.8-82.9 and 83.8-83.9 MiB (traced: 47.0, 47.4 and
#: 48.2 MiB).
_CHUNK_CELLS = 2**15
_CHUNK_STEPS = 384

#: The step's products, bound once: called with positional outputs, they
#: skip the keyword parsing of ``out=``.
_dot, _multiply, _add = np.ndarray.dot, np.multiply, np.add


def _step_coefficients(t: np.ndarray, h: float, r: float) -> np.ndarray:
    """Coefficients of the RK4 step maps of x'' + (r/t) x' + G x = 0.

    ``t`` holds the step start times (T,).  Step k maps [x, x']_k to
    [x, x']_{k+1} through a 2x2 block matrix M_k whose block (i, j) is
    sum_p c[k, p, i, j] Z^p with Z = h^2 G; the result c has shape
    (T, 3, 2, 2).  Expanding the four stages, with damping d_i = h r / t_i
    at t, t + h/2 and t + h, makes each block a quadratic in Z.  RK4 on a
    linear flow multiplies only by G and by scalars, so the map is exact
    algebra, not an approximation of the stage form, and holds for any
    square G, a scalar eigenvalue included (Hairer, Norsett & Wanner,
    Solving ODEs I, II.1).
    """
    d1 = h * (r / t)
    d2 = h * (r / (t + 0.5 * h))
    d3 = h * (r / (t + h))
    sq = d2 * d2
    p4 = sq - 2.0 * d2 + 4.0
    p12 = sq - 4.0 * d2 + 12.0
    c = np.zeros((t.shape[0], 3, 2, 2))
    c[:, 0, 0, 0] = 1.0
    c[:, 1, 0, 0] = -p12 / 24.0
    c[:, 2, 0, 0] = 1.0 / 24.0
    c[:, 0, 0, 1] = (h / 24.0) * (2.0 * p12 - d1 * p4)
    c[:, 1, 0, 1] = (h / 24.0) * (d1 + d2 - 4.0)
    c[:, 1, 1, 0] = (d3 * p4 - 2.0 * p12) / (24.0 * h)
    c[:, 2, 1, 0] = -(d2 + d3 - 4.0) / (24.0 * h)
    c[:, 0, 1, 1] = (d1 * d3 * sq - 2.0 * (d1 + d3) * (p4 - 2.0) + 4.0 * (p12 - 6.0)) / 24.0
    c[:, 1, 1, 1] = -(d1 * d3 + (d1 + d3) * (d2 - 2.0) - 4.0 * d2 + 12.0) / 24.0
    c[:, 2, 1, 1] = 1.0 / 24.0
    return c


def _augmented(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G~ = [[G, b], [0, 0]]: on x~ = [x; 1] the affine field G x + b is the
    linear field G~ x~, and the last entry of x~ stays exactly 1."""
    n = g.shape[0]
    gt = np.zeros((n + 1, n + 1))
    gt[:n, :n] = g
    gt[:n, n] = b
    return gt


def _position_sq(x: np.ndarray) -> np.ndarray:
    """Squared norm of the position row of vector-flow states (T, m, n), one lane: (T, 1)."""
    return np.einsum("ki,ki->k", x[:, 0], x[:, 0])[:, None]


def _chunk_steps(config: IntegratorConfig, width: int) -> int:
    """Steps per chunk of one run whose state holds ``width`` numbers, which
    sizes its buffers: steps x width up to ``_CHUNK_CELLS``, at most
    ``_CHUNK_STEPS`` steps and at least one, and no more than the run takes."""
    return min(max(1, min(_CHUNK_STEPS, _CHUNK_CELLS // max(width, 1))), config.n_steps)


def _drive(advance: Callable, s0: np.ndarray, config: IntegratorConfig, chunk: int, lane_sq: Callable):
    """Run an RK4 step recurrence in chunks of ``chunk`` steps and record it.

    ``advance(t, s)`` takes the state ``s`` through the steps that start at
    the times ``t`` (T,) and returns a view of the state after each of them,
    shape (T, *s0.shape).  The view stays valid until the next call, which
    gets its last state as ``s``, and the record copies the initial state
    and every ``record_stride``-th state straight from it.  The state holds one or more lanes, and
    ``lane_sq`` maps a chunk's states to each lane's squared position
    norm, shape (T, L).
    The guard |x| <= 1e150 holds after every step: it is checked per
    chunk, after the fact, and a lane that fails it is flagged saturated
    and keeps only the rows recorded before the failing step.  The run
    stops after the chunk in which its last live lane fails.  An
    ``advance`` may return fewer than T states only to end the run: the
    last of them must fail the guard on every live lane.

    Returns ``(times, record, rows, saturated)``: lane p's record is
    ``record[:rows[p]]``, and its entries past ``rows[p]`` are undefined.
    ``times`` and ``record`` end at the longest lane.
    """
    n_steps, stride = config.n_steps, config.record_stride
    t0, h = config.t0, config.dt
    n_rec = n_steps // stride + 1
    times = t0 + (np.arange(n_rec) * stride) * h
    record = np.empty((n_rec,) + s0.shape, dtype=s0.dtype)
    record[0] = s0
    alive = np.ones(lane_sq(record[:1]).shape[1], dtype=bool)
    rows = np.full(alive.shape, n_rec)
    s = s0
    guard = OVERFLOW_NORM * OVERFLOW_NORM
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, chunk):
            # states[k]: the state after step start + k + 1
            states = advance(t0 + np.arange(start, min(start + chunk, n_steps)) * h, s)
            ok = lane_sq(states) <= guard  # False for NaN as well
            first = -(start + 1) % stride  # local index of the first recorded step
            kept = states[first::stride]
            row = (start + 1 + first) // stride
            record[row : row + kept.shape[0]] = kept
            if not ok.all():  # a lane failed here, or failed in an earlier chunk
                bad = ~ok & alive
                failed = np.flatnonzero(bad.any(axis=0))
                rows[failed] = (start + bad[:, failed].argmax(axis=0)) // stride + 1
                alive[failed] = False
                if not alive.any():
                    break
            s = states[-1]
    top = rows.max(initial=1)
    return times[:top], record[:top], rows, ~alive


def _record(kind: str, times, q, v, saturated, config: IntegratorConfig, **meta) -> TrajectoryRecord:
    """The record of one run, with ``meta`` between its kind and its config."""
    return TrajectoryRecord(
        times=times, q=q, v=v, saturated=bool(saturated), meta={"kind": kind, **meta, "config": config}
    )


def simulate_nagd(matrix, offset, q0, v0=None, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate x'' + (r/t) x' + G x + b = 0 from (q0, v0)."""
    g, b, q, v = _check_system(matrix, offset, q0, v0)
    n = g.shape[0]
    gt_t = _augmented(g, b).T.copy()
    h, r = config.dt, config.damping_exponent
    # the h^2 of Z = h^2 G~ goes into the coefficients, and Z^2 acts as Z (Z s):
    # a state at which G~ x~ rounds to exactly zero then stays exactly fixed,
    # as in the stage form
    powers = np.array([1.0, h * h, h**4])[:, None, None]
    # slot k holds [s; s G~^T; s (G~^T)^2] for the state s after k steps of
    # the chunk; step k reads slot k and writes its state into slot k + 1
    chunk = _chunk_steps(config, 2 * (n + 1))
    ring = np.empty((chunk + 1, 3, 2, n + 1))
    ring[:, 0, :, n] = 1.0, 0.0
    # coef[k, i, p, j]: the coefficient of Z^p in block (i, j) of step k's map
    coef = np.empty((chunk, 2, 3, 2))
    coef_p = coef.transpose(0, 2, 1, 3)
    a_all = list(ring[:, 0])
    steps = list(zip(coef.reshape(chunk, 2, 6), a_all, ring[:, 1], ring[:, 2], ring.reshape(chunk + 1, 6, n + 1), a_all[1:]))

    def advance(t, s):
        _multiply(_step_coefficients(t, h, r), powers, coef_p[: t.shape[0]])
        ring[0, 0, :, :n] = s
        for ck, a, ag, agg, a6, nxt in steps[: t.shape[0]]:
            _dot(a, gt_t, ag)
            _dot(ag, gt_t, agg)
            _dot(ck, a6, nxt)
        return ring[1 : t.shape[0] + 1, 0, :, :n]

    times, states, _, saturated = _drive(advance, np.stack([q, v]), config, chunk, _position_sq)
    return _record("nagd", times, states[:, 0], states[:, 1], saturated[0], config)


def simulate_first_order(matrix, offset, x0, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate the plain pseudo-gradient flow x' = -(G x + b)."""
    g, b, x, _ = _check_system(matrix, offset, x0, None)
    n = g.shape[0]
    # the flow is autonomous, so every RK4 step is the same map
    # R(A) = sum_{k<=4} A^k / k! with A = -h G~, built once.  It is kept as
    # R - I and added to the state, so the rounding of R's entries near 1
    # does not bias every step the same way.
    a = -config.dt * _augmented(g, b)
    term = np.eye(n + 1)
    incr = np.zeros((n + 1, n + 1))
    for k in range(1, 5):
        term = (term @ a) / k
        incr += term
    et = incr.T.copy()
    chunk = _chunk_steps(config, n + 1)
    ring = np.empty((chunk + 1, 1, n + 1))  # slot k: the state after k steps of the chunk
    ring[:, 0, n] = 1.0
    slots = list(ring)
    steps = list(zip(slots, slots[1:]))

    def advance(t, s):
        ring[0, :, :n] = s
        for a, nxt in steps[: t.shape[0]]:
            _dot(a, et, nxt)
            _add(nxt, a, nxt)
        return ring[1 : t.shape[0] + 1, :, :n]

    times, states, _, saturated = _drive(advance, x[None, :], config, chunk, _position_sq)
    del ring, slots, steps, advance  # so the ring does not add to the peak of computing v
    q = states[:, 0]
    return _record("first-order", times, q, -(q @ g.T) - b, saturated[0], config)


#: RK4's stability limit on the imaginary axis: |R(iy)| <= 1 for |y| <= 2 sqrt(2).
_RK4_IMAGINARY_LIMIT = 2.0 * math.sqrt(2.0)


def check_rk4_step(h: float, lams) -> None:
    """Raise ``ValueError`` when RK4 at step ``h`` is unstable on y'' + lam y = 0 for a lam > 0 of ``lams``.

    The mode's eigenvalues are +-i sqrt(lam), so RK4 is stable on it only
    for h sqrt(lam) <= 2 sqrt(2).  The damping (r/t) y' fades as t grows,
    so past that limit a long run grows until it saturates, on a mode that
    decays.  The message suggests a stable step, rounded down to two
    significant digits.
    """
    lam = max(lams, default=0.0)
    if h * math.sqrt(lam) <= _RK4_IMAGINARY_LIMIT:
        return
    limit = _RK4_IMAGINARY_LIMIT / math.sqrt(lam)
    unit = 10.0 ** (math.floor(math.log10(limit)) - 1)
    raise ValueError(
        f"{h!r} is past RK4's stability limit on the eigenvalue {lam:.6g} "
        f"(h*sqrt(lambda) = {h * math.sqrt(lam):.4g} > 2*sqrt(2)); "
        f"choose dt <= {math.floor(limit / unit) * unit:.2g}"
    )


def _modal_step_maps(lam: np.ndarray, t: np.ndarray, h: float, r: float, out: np.ndarray) -> np.ndarray:
    """RK4 step maps [y, y']_{k+1} = M_k [y, y']_k of y'' + (r/t) y' + lam y = 0, written into ``out``.

    ``t`` holds the step start times (T,) and ``lam`` the points (P,).
    ``out`` has shape (T, 2, 2, P) and is stored by columns: entry
    [k, j, i, p] is M_k[i, j] of point p, the quadratic of
    :func:`_step_coefficients` evaluated at z = h^2 lam.
    """
    c = _step_coefficients(t, h, r).transpose(1, 0, 3, 2)[..., None]
    z = (h * h) * lam
    # c[0] + z (c[1] + z c[2]), evaluated in place
    _multiply(z, c[2], out)
    _add(c[1], out, out)
    _multiply(z, out, out)
    _add(c[0], out, out)
    return out


def _modal_rk4(lams, y0, ydot0, config: IntegratorConfig):
    """RK4 for the modal equation y'' + (r/t) y' + lam y = 0, one lane per lam.

    Returns ``(times, q, v, rows, saturated)``: ``q`` and ``v`` have shape
    (rows.max(), B), and lane p's record is ``q[:rows[p], p]``.  A lane
    whose |y| passes 1e150 is flagged in ``saturated`` and keeps only the
    rows recorded before that step; its values past its ``rows`` are
    undefined.  Each chunk's step maps are built with whole-array
    operations, so each step costs one 2x2 complex matrix-vector product
    over the batch.
    """
    lam = np.asarray(lams, dtype=complex).ravel()
    h, r = config.dt, config.damping_exponent
    chunk = _chunk_steps(config, 2 * lam.shape[0])
    # slot k: the state after k steps of the chunk, as a column [y; y'] per lane
    ring = np.empty((chunk + 1, 2, 1, lam.shape[0]), dtype=complex)
    maps = np.empty((chunk, 2, 2, lam.shape[0]), dtype=complex)
    prod = np.empty((2, 2, lam.shape[0]), dtype=complex)  # [j, i, p]: M[i, j] s[j] of lane p
    p0, p1 = prod[:, :, None]
    slots = list(ring)
    steps = list(zip(maps, slots, slots[1:]))

    def advance(t, s):
        _modal_step_maps(lam, t, h, r, maps[: t.shape[0]])
        ring[0, :, 0] = s
        for m_k, col, nxt in steps[: t.shape[0]]:
            _multiply(m_k, col, prod)
            _add(p0, p1, nxt)
        return ring[1 : t.shape[0] + 1, :, 0]

    s0 = np.empty((2, lam.shape[0]), dtype=complex)
    s0[0], s0[1] = y0, ydot0
    times, states, rows, saturated = _drive(advance, s0, config, chunk, lambda y: np.abs(y[:, 0]) ** 2)
    return times, states[:, 0], states[:, 1], rows, saturated


def simulate_modal(lam: complex, y0: complex, ydot0: complex, config: IntegratorConfig = IntegratorConfig()) -> TrajectoryRecord:
    """Integrate the scalar modal equation y'' + (r/t) y' + lam y = 0."""
    lam = complex(lam)
    times, q, v, _, saturated = _modal_rk4([lam], complex(y0), complex(ydot0), config)
    return _record("modal", times, q[:, 0], v[:, 0], saturated[0], config, lam=lam)


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
    h, r = config.dt, config.damping_exponent
    half, sixth = 0.5 * h, h / 6.0
    guard = OVERFLOW_NORM * OVERFLOW_NORM

    def f(t, s, out):
        fx = np.asarray(field(s[0]), dtype=float)
        if not np.isfinite(fx).all():
            raise NonFiniteField(f"field returned a non-finite value near t = {t:.6g}")
        out[0] = s[1]
        out[1] = -fx - (r / t) * s[1]

    k1, k2, k3, k4 = np.empty((4, 2, n))  # the stage derivatives, reused by every step
    chunk = _chunk_steps(config, 2 * n)
    out = np.empty((chunk, 2, n))

    def advance(t, s):
        for k, tk in enumerate(t.tolist()):
            f(tk, s, k1)
            f(tk + half, s + half * k1, k2)
            f(tk + half, s + half * k2, k3)
            f(tk + h, s + h * k3, k4)
            out[k] = s + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            # the guard runs here, before the field sees the new state, and
            # _drive flags this same row, the last it is given
            if not _position_sq(out[k : k + 1])[0, 0] <= guard:  # False for NaN as well
                return out[: k + 1]
            s = out[k]
        return out[: t.shape[0]]

    times, states, _, saturated = _drive(advance, np.stack([x, v]), config, chunk, _position_sq)
    return _record("smooth-nagd", times, states[:, 0], states[:, 1], saturated[0], config)


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
