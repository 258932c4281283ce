"""Integrator correctness: grids, RK4 order, truncation, modal agreement."""

import math
import warnings

import numpy as np
import pytest

from nagdyn import dynamics, special
from nagdyn.dynamics import IntegratorConfig, simulate_first_order, simulate_modal, simulate_nagd, simulate_smooth_nagd
from nagdyn.errors import NonFiniteField

ROT = np.array([[6.0, 1.5], [-1.5, 6.0]])


def test_stationary_point_is_fixed():
    g = np.array([[0.4, 0.2], [0.2, 0.8]])
    b = np.array([0.3, -0.5])
    q_star = np.linalg.solve(g, -b)
    rec = simulate_nagd(g, b, q_star, np.zeros(2), IntegratorConfig(t_end=5.0))
    # the field vanishes identically, so every RK4 stage is exactly zero
    assert np.array_equal(rec.q, np.tile(q_star, (rec.n_samples, 1)))
    assert np.array_equal(rec.v, np.zeros_like(rec.v))
    assert not rec.saturated


@pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
def test_nullspace_velocity_power_law(r):
    # lam = 0 decouples the velocity: y'' = -(r/t) y', so ydot = ydot0 (t0/t)^r
    cfg = IntegratorConfig(t0=1.0, t_end=10.0, dt=0.005, damping_exponent=r)
    rec = simulate_modal(0.0, 0.3, -2.0, cfg)
    expected = -2.0 * (cfg.t0 / rec.times) ** r
    assert np.max(np.abs(rec.v.real - expected)) <= 1e-9  # RK4 floor at this dt
    assert np.max(np.abs(rec.v.imag)) == 0.0


def test_rk4_order_factor():
    lam = 0.883
    sol = special.make_modal_solution(lam, 1.0, 0.5, 0.0)
    errs = []
    for dt in (0.02, 0.01):
        rec = simulate_modal(lam, 0.5, 0.0, IntegratorConfig(t0=1.0, t_end=5.0, dt=dt))
        exact = special.eval_modal(sol, float(rec.times[-1]))
        errs.append(abs(rec.q[-1] - exact.y))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0  # fourth-order: halving dt gains ~16x


def test_first_order_exponential_decay():
    # ROT = 6 I + skew, so the flow is a decaying rotation with |x| = e^{-6(t-t0)}
    cfg = IntegratorConfig(t0=1.0, t_end=5.0, dt=0.002)
    rec = simulate_first_order(ROT, None, np.array([1.0, 0.0]), cfg)
    norms = np.linalg.norm(rec.q, axis=1)
    expected = np.exp(-6.0 * (rec.times - 1.0))
    assert np.max(np.abs(norms / expected - 1.0)) <= 1e-6
    assert np.allclose(rec.v, -(rec.q @ ROT.T), atol=0.0)


def test_first_order_skew_preserves_norm():
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rec = simulate_first_order(g, None, np.array([1.0, 0.0]), IntegratorConfig(t0=1.0, t_end=50.0, dt=0.01))
    norms = np.linalg.norm(rec.q, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_record_row_counts():
    cfg = IntegratorConfig(t0=1.0, t_end=100.0, dt=0.01)
    rec = simulate_nagd(np.eye(2), None, np.array([1.0, 0.0]), config=cfg)
    assert rec.n_samples == 9901
    assert rec.times[0] == 1.0 and rec.times[-1] == pytest.approx(100.0, abs=1e-9)
    strided = simulate_nagd(
        np.eye(2), None, np.array([1.0, 0.0]),
        config=IntegratorConfig(t0=1.0, t_end=100.0, dt=0.01, record_stride=10),
    )
    assert strided.n_samples == 991
    assert np.allclose(strided.q, rec.q[::10], atol=0.0)


def test_record_stride_non_divisible():
    cfg = IntegratorConfig(t0=1.0, t_end=1.1, dt=0.01, record_stride=3)
    rec = simulate_modal(1.0, 1.0, 0.0, cfg)
    # 10 steps, keep every third: samples at k = 0, 3, 6, 9
    assert rec.n_samples == 4
    assert np.allclose(rec.times, [1.0, 1.03, 1.06, 1.09], atol=1e-12)


def test_overflow_truncates_and_flags():
    # x' = 50 x passes 1e150 near t = 7.9, well before t_end
    cfg = IntegratorConfig(t0=1.0, t_end=10.0, dt=0.002)
    rec = simulate_first_order(np.array([[-50.0]]), None, np.array([1.0]), cfg)
    assert rec.saturated
    assert rec.times[-1] < 10.0
    assert np.all(np.isfinite(rec.q))
    assert np.all(np.abs(rec.q) <= dynamics.OVERFLOW_NORM)
    assert abs(rec.q[-1, 0]) > 1e140


@pytest.mark.parametrize("lam", [0.317, -0.5, 6 + 1.5j])
def test_modal_rk4_matches_closed_form(lam):
    sol = special.make_modal_solution(lam, 1.0, 1.0, 0.0)
    rec = simulate_modal(lam, 1.0, 0.0, IntegratorConfig(t0=1.0, t_end=10.0, dt=0.01))
    series = special.eval_modal_series(sol, rec.times)
    scale = float(np.max(np.abs(series.y)))
    assert np.max(np.abs(rec.q - series.y)) <= 1e-6 * scale


def test_smooth_agrees_with_linear():
    g = np.array([[0.4, 0.2], [0.2, 0.8]])
    b = np.array([0.1, -0.3])
    cfg = IntegratorConfig(t0=1.0, t_end=20.0, dt=0.01)
    lin = simulate_nagd(g, b, np.array([0.5, 0.3]), np.array([0.0, 0.1]), cfg)
    smooth = simulate_smooth_nagd(lambda x: g @ x + b, np.array([0.5, 0.3]), np.array([0.0, 0.1]), cfg)
    assert np.max(np.abs(lin.q - smooth.q)) <= 1e-9
    assert np.max(np.abs(lin.v - smooth.v)) <= 1e-9


def test_velocity_consistent_with_position():
    rng = np.random.RandomState(7)
    g = rng.randn(3, 3)
    g = 0.5 * (g + g.T) + 3.0 * np.eye(3)
    cfg = IntegratorConfig(t0=1.0, t_end=10.0, dt=0.01)
    rec = simulate_nagd(g, None, rng.randn(3), rng.randn(3), cfg)
    dq = (rec.q[2:] - rec.q[:-2]) / (2.0 * cfg.dt)
    assert np.max(np.abs(dq - rec.v[1:-1])) <= 1e-3  # O(dt^2) stencil


def test_nonfinite_field_raises():
    def bad(x):
        return np.array([math.inf])  # shape passes the probe, stages do not

    with pytest.raises(NonFiniteField):
        simulate_smooth_nagd(bad, np.array([1.0]), config=IntegratorConfig(t_end=2.0))


def test_finite_difference_jacobian_cubic():
    g = ROT

    def field(x):
        return g @ x + 0.1 * x**3

    jac = dynamics.finite_difference_jacobian(field, np.zeros(2))
    assert np.max(np.abs(jac - g)) <= 1e-8
    with pytest.raises(ValueError):
        dynamics.finite_difference_jacobian(field, np.zeros(2), step=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t0=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t0=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(record_stride=0)
    with pytest.raises(ValueError):
        IntegratorConfig(t0=1.0, t_end=2.0, dt=1e-9)  # > 1e8 steps
    with pytest.raises(ValueError):
        IntegratorConfig(t0=1.0, t_end=1.001, dt=0.01)  # rounds to zero steps
    # spans whose step count overflows to inf are refused before it is rounded
    for t_end, dt in ((1e308, 1e-10), (30.0, 1e-320)):
        with pytest.raises(ValueError, match="more than 1e8 steps"):
            IntegratorConfig(t0=1.0, t_end=t_end, dt=dt)
    for r in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="damping_exponent"):
            IntegratorConfig(damping_exponent=r)
    # r <= 1 is accepted without a warning; a run's summary notes it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        IntegratorConfig(damping_exponent=1.0)


def test_system_validation():
    with pytest.raises(ValueError):
        simulate_nagd(np.ones((2, 3)), None, np.zeros(2))
    with pytest.raises(ValueError):
        simulate_nagd(np.eye(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        simulate_nagd(np.array([[np.nan, 0.0], [0.0, 1.0]]), None, np.zeros(2))
    with pytest.raises(ValueError):
        simulate_smooth_nagd(lambda x: x[:1], np.zeros(2))


# --------------------------------------------------------------------------
# batched modal integrator


def _reference_modal_rk4(lam, y0, ydot0, cfg):
    """Stage-form RK4 of y'' + (r/t) y' + lam y = 0 in complex scalars.

    The 1e150 guard is checked after every step, and a run that fails it
    keeps the rows recorded before that step.  Returns (times, q, v, saturated).
    """
    r, h = cfg.damping_exponent, cfg.dt

    def f(t, y, v):
        return v, -lam * y - (r / t) * v

    y, v = complex(y0), complex(ydot0)
    times, ys, vs = [cfg.t0], [y], [v]
    saturated = False
    for k in range(cfg.n_steps):
        t = cfg.t0 + k * h
        a = f(t, y, v)
        b = f(t + h / 2, y + h / 2 * a[0], v + h / 2 * a[1])
        c = f(t + h / 2, y + h / 2 * b[0], v + h / 2 * b[1])
        d = f(t + h, y + h * c[0], v + h * c[1])
        y = y + h / 6 * (a[0] + 2 * (b[0] + c[0]) + d[0])
        v = v + h / 6 * (a[1] + 2 * (b[1] + c[1]) + d[1])
        if not abs(y) ** 2 <= dynamics.OVERFLOW_NORM**2:
            saturated = True
            break
        if (k + 1) % cfg.record_stride == 0:
            times.append(cfg.t0 + (k + 1) * h)
            ys.append(y)
            vs.append(v)
    return np.array(times), np.array(ys), np.array(vs), saturated


def _sup_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# one point per region: PositiveReal, Zero, NegativeReal, StrictlyComplex
REGION_POINTS = [0.883, 0.0, -0.5, 6 + 1.5j]


def test_batched_modal_matches_stage_form_in_every_region():
    cfg = IntegratorConfig(t0=1.0, t_end=30.0, dt=0.01)
    times, q, v, rows, saturated = dynamics._modal_rk4(REGION_POINTS, 1.0, 0.5, cfg)
    assert q.shape == v.shape == (cfg.n_steps + 1, len(REGION_POINTS))
    assert not saturated.any()
    for p, lam in enumerate(REGION_POINTS):
        ref_t, ref_q, ref_v, _ = _reference_modal_rk4(lam, 1.0, 0.5, cfg)
        assert rows[p] == ref_t.shape[0]
        assert np.array_equal(times, ref_t)
        assert _sup_rel(q[:, p], ref_q) <= 1e-12
        assert _sup_rel(v[:, p], ref_v) <= 1e-12


def test_batched_modal_saturating_lane_is_truncated_alone():
    # lam = -400 grows like e^{20 t} and passes 1e150 near t = 18
    lams = [0.883, -400.0, 6 + 1.5j]
    cfg = IntegratorConfig(t0=1.0, t_end=30.0, dt=0.01)
    times, q, v, rows, saturated = dynamics._modal_rk4(lams, 1.0, 0.0, cfg)
    assert saturated.tolist() == [False, True, False]
    ref_t, ref_q, _, ref_sat = _reference_modal_rk4(-400.0, 1.0, 0.0, cfg)
    assert ref_sat and 1 < ref_t.shape[0] < cfg.n_steps
    assert rows[1] == ref_t.shape[0]
    assert np.array_equal(times[: rows[1]], ref_t)
    assert _sup_rel(q[: rows[1], 1], ref_q) <= 1e-12
    assert np.all(np.abs(q[: rows[1], 1]) <= dynamics.OVERFLOW_NORM)
    # the same truncation as the stage-form core of the vector flows
    lone = simulate_modal(-400.0, 1.0, 0.0, cfg)
    assert lone.saturated and lone.n_samples == rows[1]
    for p in (0, 2):
        assert rows[p] == cfg.n_steps + 1
        _, ref_q, _, _ = _reference_modal_rk4(lams[p], 1.0, 0.0, cfg)
        assert _sup_rel(q[:, p], ref_q) <= 1e-12


def _spy_chunks(monkeypatch):
    """The list to which every later ``_drive`` call appends its chunk length."""
    chunks = []
    drive = dynamics._drive

    def spy(advance, s0, config, chunk, lane_sq):
        chunks.append(chunk)
        return drive(advance, s0, config, chunk, lane_sq)

    monkeypatch.setattr(dynamics, "_drive", spy)
    return chunks


@pytest.mark.parametrize("stride", [1, 3, 7, 100])
def test_batched_modal_chunk_edges_and_strides(monkeypatch, stride):
    # 10 steps per chunk (60 cells over 3 lanes of 2 numbers) against 293
    # steps, so the last chunk is partial; lam = -160^2 passes 1e150 near
    # t = 3.2, inside a chunk and, at stride 100, after the last recorded
    # row: only a guard checked at every step flags it
    monkeypatch.setattr(dynamics, "_CHUNK_CELLS", 60)
    chunks = _spy_chunks(monkeypatch)
    lams = [1.0, -25600.0, 2j]
    cfg = IntegratorConfig(t0=1.0, t_end=3.93, dt=0.01, record_stride=stride)
    assert cfg.n_steps == 293
    times, q, v, rows, saturated = dynamics._modal_rk4(lams, 1.0, 0.0, cfg)
    assert chunks == [10]
    assert times.shape[0] == cfg.n_steps // stride + 1
    for p, lam in enumerate(lams):
        ref_t, ref_q, ref_v, ref_sat = _reference_modal_rk4(lam, 1.0, 0.0, cfg)
        assert bool(saturated[p]) == ref_sat
        assert rows[p] == ref_t.shape[0]
        assert np.array_equal(times[: rows[p]], ref_t)
        assert _sup_rel(q[: rows[p], p], ref_q) <= 1e-12
        assert _sup_rel(v[: rows[p], p], ref_v) <= 1e-12
    assert saturated.tolist() == [False, True, False]


def test_check_rk4_step_refuses_a_step_past_the_imaginary_axis_limit():
    limit = 2.0 * math.sqrt(2.0)
    dynamics.check_rk4_step(limit, [1.0, 0.25])  # the limit itself is stable
    dynamics.check_rk4_step(1e3, [])
    with pytest.raises(ValueError, match=r"eigenvalue 1 .* choose dt <= 2\.8$"):
        dynamics.check_rk4_step(np.nextafter(limit, 3.0), [1.0, 0.25])
    with pytest.raises(ValueError, match=r"choose dt <= 0\.0028$"):
        dynamics.check_rk4_step(0.01, [0.5, 1e6])


def _step_map(t, h, r, lam):
    """The 2x2 RK4 step map of y'' + (r/t) y' + lam y = 0 from ``t``, from ``_step_coefficients``."""
    c = dynamics._step_coefficients(np.array([t]), h, r)[0]
    z = h * h * lam
    return c[0] + z * c[1] + z * z * c[2]


@pytest.mark.parametrize("lam", [1.0, 100.0, 400.0, 800.0, 1.001**2 * 800.0], ids=["0.1", "1", "2", "limit", "past"])
def test_rk4_mode_step_is_the_step_map_on_an_undamped_mode(lam):
    # at t = 1e12 the damping h r / t = 3e-13 is negligible, so the map's
    # spectral radius is |R(iy)| at y = h sqrt(lam) = 0.1, 1, 2, 2 sqrt(2)
    # and 1.001 * 2 sqrt(2)
    h, t = 0.1, 1e12
    radius = np.abs(np.linalg.eigvals(_step_map(t, h, 3.0, lam))).max()
    margin, loss = dynamics.rk4_mode_step(h, t, 3.0, lam)
    assert (radius <= 1.0) == (margin <= 1.0) == (lam <= 800.0)
    if lam <= 800.0:
        assert abs(radius - math.exp(-loss)) <= 1e-12
    else:
        assert math.isnan(loss)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 2.7, 2.85, 3.5])
def test_rk4_mode_step_is_the_step_map_on_the_damping_axis(d):
    # lam = 0, h = 1 and r = d t at t = 1e6: the damping stays within 1e-6
    # of d over the step, and the velocity coefficient is R(-d)
    t = 1e6
    velocity = _step_map(t, 1.0, d * t, 0.0)[1, 1]
    assert abs(velocity - (1.0 - d + d**2 / 2.0 - d**3 / 6.0 + d**4 / 24.0)) <= 1e-5
    margin, _ = dynamics.rk4_mode_step(1.0, t, d * t, 0.0)
    assert (abs(velocity) <= 1.0) == (margin <= 1.0) == (d <= 2.785293563405282)


def test_rk4_damping_limit_is_where_the_step_map_crosses_one():
    d = dynamics._RK4_DAMPING_LIMIT
    assert abs(-1.0 + d / 2.0 - d**2 / 6.0 + d**3 / 24.0) <= 1e-15  # R(-d) = 1
    t = 1e6
    below, above = (_step_map(t, 1.0, x * t, 0.0)[1, 1] for x in (d - 1e-4, d + 1e-4))
    assert below < 1.0 < above


def test_simulate_modal_is_one_lane_of_the_batch():
    cfg = IntegratorConfig(t0=1.0, t_end=10.0, dt=0.01, record_stride=4)
    rec = simulate_modal(6 + 1.5j, 0.25, -1.0, cfg)
    times, q, v, rows, _ = dynamics._modal_rk4([0.5, 6 + 1.5j], 0.25, -1.0, cfg)
    assert rec.meta == {"kind": "modal", "lam": 6 + 1.5j, "config": cfg}
    assert np.array_equal(rec.times, times[: rows[1]])
    assert _sup_rel(rec.q, q[: rows[1], 1]) <= 1e-15
    assert _sup_rel(rec.v, v[: rows[1], 1]) <= 1e-15


def _reference_sweep_rate(lam, cls):
    """Rate of one measured sweep point, fitted on a stage-form trajectory."""
    from nagdyn import analysis

    times, q, _, _ = _reference_modal_rk4(lam, 1.0, 0.0, IntegratorConfig(t0=1.0, t_end=60.0, dt=0.01))
    window = (max(20.0, times[0]), times[-1])
    if cls == "PositiveReal":
        fit = analysis.fit_rate(times, np.abs(q), kind="algebraic", window=window, envelope=True)
    elif cls == "Zero":
        fit = analysis.fit_rate(times, np.abs(q), kind="algebraic", window=window)
    else:
        fit = analysis.fit_rate(
            times, np.abs(q), kind="exponential", window=window,
            detrend_log_power=-1.5,
        )
    return fit.slope


def test_measured_sweep_matches_per_point_rates(tmp_path):
    from nagdyn import cli

    assert cli.main(["sweep", "--grid=-1:1:3,-0.5:0.5:3", "--measure", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 9
    classes = set()
    for line in lines:
        re_s, im_s, _, measured_s, cls = line.split(",")
        classes.add(cls)
        want = _reference_sweep_rate(complex(float(re_s), float(im_s)), cls)
        assert float(measured_s) == pytest.approx(want, rel=1e-10, abs=1e-13)
    assert classes == {"PositiveReal", "Zero", "NegativeReal", "StrictlyComplex"}


# --------------------------------------------------------------------------
# step-map core of the vector flows


def _reference_rk4(f, s0, n, cfg):
    """Stage-form RK4 of s' = f(t, s), guard |s[:n]| <= 1e150 after every step.

    A run that fails the guard keeps the rows recorded before that step.
    Returns (times, states, saturated).
    """
    h, stride = cfg.dt, cfg.record_stride
    s = np.asarray(s0, dtype=float)
    times, states = [cfg.t0], [s]
    for k in range(cfg.n_steps):
        t = cfg.t0 + k * h
        a = f(t, s)
        b = f(t + h / 2, s + h / 2 * a)
        c = f(t + h / 2, s + h / 2 * b)
        d = f(t + h, s + h * c)
        s = s + h / 6 * (a + 2 * (b + c) + d)
        if not s[:n] @ s[:n] <= dynamics.OVERFLOW_NORM**2:
            return np.array(times), np.array(states), True
        if (k + 1) % stride == 0:
            times.append(cfg.t0 + (k + 1) * h)
            states.append(s)
    return np.array(times), np.array(states), False


def _reference_nagd(g, b, q0, v0, cfg):
    n, r = len(q0), cfg.damping_exponent

    def f(t, s):
        return np.concatenate([s[n:], -(g @ s[:n]) - b - (r / t) * s[n:]])

    times, states, saturated = _reference_rk4(f, np.concatenate([q0, v0]), n, cfg)
    return times, states[:, :n], states[:, n:], saturated


def _step_map_coefficients(t, h, r):
    """dynamics._step_coefficients, written out here so that the bit tests pin its arithmetic too.

    c[k, p, i, j] is the Z^p coefficient of block (i, j) of step k's map,
    with the damping d at the stage times t, t + h/2 and t + h.
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


# Plain step loops with one work buffer, the references of the workspace
# rings: each step makes the same products in the same order, so the records
# must agree bit for bit.  They run in chunks of their own length; a step does not
# depend on where a chunk starts.  Each keeps its own output buffer, augments
# the state on entry and returns a view of the states it took.
_PLAIN_CHUNK = 64


def _plain_nagd(g, b, q0, v0, cfg):
    """simulate_nagd with one work buffer: three np.dot calls and a copy back per step."""
    n = g.shape[0]
    gt_t = dynamics._augmented(g, b).T.copy()
    h, r = cfg.dt, cfg.damping_exponent
    powers = np.array([1.0, h * h, h**4])[:, None, None]
    w = np.empty((3, 2, n + 1))
    s_now, s_g, s_gg = w
    w6 = w.reshape(6, n + 1)
    buf = np.empty((_PLAIN_CHUNK, 2, n + 1))

    def advance(t, s):
        coef = _step_map_coefficients(t, h, r)
        coef *= powers
        coef = coef.transpose(0, 2, 1, 3).reshape(-1, 2, 6)
        out = buf[: t.shape[0]]
        s_now[:, :n], s_now[:, n] = s, (1.0, 0.0)
        for ck, o in zip(coef, out):
            np.dot(s_now, gt_t, out=s_g)
            np.dot(s_g, gt_t, out=s_gg)
            np.dot(ck, w6, out=o)
            s_now[...] = o
        return out[:, :, :n]

    times, states, _, saturated = dynamics._drive(
        advance, np.stack([q0, v0]), cfg, _PLAIN_CHUNK, dynamics._position_sq
    )
    return times, states[:, 0], states[:, 1], bool(saturated[0])


def _plain_first_order(g, b, x0, cfg):
    """simulate_first_order's step as np.dot into the output row, then np.add."""
    n = g.shape[0]
    a = -cfg.dt * dynamics._augmented(g, b)
    term = np.eye(n + 1)
    incr = np.zeros((n + 1, n + 1))
    for k in range(1, 5):
        term = (term @ a) / k
        incr += term
    et = incr.T.copy()
    buf = np.empty((_PLAIN_CHUNK, 1, n + 1))

    def advance(t, s):
        out = buf[: t.shape[0]]
        s = np.append(s[0], 1.0)[None, :]
        for o in out:
            np.dot(s, et, out=o)
            s = np.add(o, s, out=o)
        return out[:, :, :n]

    times, states, _, saturated = dynamics._drive(
        advance, x0[None, :], cfg, _PLAIN_CHUNK, dynamics._position_sq
    )
    return times, states[:, 0], bool(saturated[0])


def _plain_modal(lams, y0, ydot0, cfg):
    """_modal_rk4's step as np.multiply and np.add over the lanes, into the output row."""
    lam = np.asarray(lams, dtype=complex)
    h, r = cfg.dt, cfg.damping_exponent
    prod = np.empty((2, 2, lam.shape[0]), dtype=complex)
    buf = np.empty((_PLAIN_CHUNK, 2, lam.shape[0]), dtype=complex)

    def advance(t, s):
        # the step maps as the quadratic c0 + z (c1 + z c2) of array operators
        c = _step_map_coefficients(t, h, r).transpose(1, 0, 3, 2)[..., None]
        z = (h * h) * lam
        m = c[0] + z * (c[1] + z * c[2])
        out = buf[: t.shape[0]]
        for m_k, o in zip(m, out):
            np.multiply(m_k, s[:, None], out=prod)
            np.add(prod[0], prod[1], out=o)
            s = o
        return out

    s0 = np.empty((2, lam.shape[0]), dtype=complex)
    s0[0], s0[1] = y0, ydot0
    times, states, rows, saturated = dynamics._drive(
        advance, s0, cfg, _PLAIN_CHUNK, lambda y: np.abs(y[:, 0]) ** 2
    )
    return times, states[:, 0], states[:, 1], rows, saturated


def _vector_system(n, kind):
    rng = np.random.RandomState(n)
    if kind == "jordan":
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
    elif kind == "saturating":
        g = np.diag([1.0, -25600.0])  # passes 1e150 near t = 3.2, inside a chunk
    else:
        a = rng.randn(n, n)
        g = a @ a.T / n + 0.2 * np.eye(n)
        if kind == "nonsymmetric":
            g += np.triu(rng.randn(n, n), 1) - np.triu(rng.randn(n, n), 1).T
    return g, rng.randn(g.shape[0]), rng.randn(g.shape[0]), rng.randn(g.shape[0])


VECTOR_SYSTEMS = [(1, "symmetric"), (2, "nonsymmetric"), (2, "jordan"), (2, "saturating"),
                  (4, "symmetric"), (10, "nonsymmetric"), (40, "symmetric")]


@pytest.mark.parametrize("stride", [1, 3, 7, 50])
@pytest.mark.parametrize("n, kind", VECTOR_SYSTEMS)
def test_step_map_core_matches_stage_form(monkeypatch, n, kind, stride):
    # 10 steps per chunk against 293 steps, so the last chunk is partial;
    # the saturating system fails the guard inside a chunk and, at stride
    # 50, after the last recorded row
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 10)
    chunks = _spy_chunks(monkeypatch)
    g, b, q0, v0 = _vector_system(n, kind)
    cfg = IntegratorConfig(t0=1.0, t_end=3.93, dt=0.01, record_stride=stride)
    assert cfg.n_steps == 293
    rec = simulate_nagd(g, b, q0, v0, cfg)
    assert chunks[0] == 10
    ref_t, ref_q, ref_v, ref_sat = _reference_nagd(g, b, q0, v0, cfg)
    assert rec.saturated == ref_sat == (kind == "saturating")
    assert np.array_equal(rec.times, ref_t)
    assert rec.q.shape == rec.v.shape == ref_q.shape
    assert _sup_rel(rec.q, ref_q) <= 1e-12
    assert _sup_rel(rec.v, ref_v) <= 1e-12
    # and bit for bit the plain loop, which cuts the grid into other chunks
    plain_t, plain_q, plain_v, plain_sat = _plain_nagd(g, b, q0, v0, cfg)
    assert rec.saturated == plain_sat
    assert _same_bits(rec.times, plain_t)
    assert _same_bits(rec.q, plain_q)
    assert _same_bits(rec.v, plain_v)


@pytest.mark.parametrize("stride", [1, 7])
def test_first_order_step_map_matches_stage_form(stride):
    g, b, x0 = ROT, np.array([0.3, -0.2]), np.array([1.0, 0.5])
    cfg = IntegratorConfig(t0=1.0, t_end=5.0, dt=0.002, record_stride=stride)
    rec = simulate_first_order(g, b, x0, cfg)
    ref_t, ref_x, ref_sat = _reference_rk4(lambda t, s: -(g @ s) - b, x0, 2, cfg)
    assert not rec.saturated and not ref_sat
    assert np.array_equal(rec.times, ref_t)
    assert _sup_rel(rec.q, ref_x) <= 1e-12
    assert np.allclose(rec.v, -(rec.q @ g.T) - b, rtol=0.0, atol=1e-15)
    plain_t, plain_x, plain_sat = _plain_first_order(g, b, x0, cfg)
    assert not plain_sat
    assert _same_bits(rec.times, plain_t)
    assert _same_bits(rec.q, plain_x)
    # the offset moves the rest point to -G^{-1} b
    assert np.allclose(rec.q[-1], np.linalg.solve(g, -b), atol=1e-9)


@pytest.mark.parametrize(
    "matrix, q0, rows",
    [
        ([[-25.0]], [1.0], 7043),  # the runaway CLI config
        ([[1e6, 0.0], [0.0, 0.5]], [1.0, 1.0], 58),  # RK4 unstable at dt = 0.01
        ([[1e200]], [1.0], 1),  # overflows within the first step
    ],
)
def test_saturation_row_counts(matrix, q0, rows):
    cfg = IntegratorConfig(t0=1.0, t_end=100.0, dt=0.01)
    rec = simulate_nagd(matrix, None, q0, config=cfg)
    assert rec.saturated and rec.n_samples == rows
    assert np.all(np.isfinite(rec.q)) and np.all(np.isfinite(rec.v))
    assert np.all(np.linalg.norm(rec.q, axis=1) <= dynamics.OVERFLOW_NORM)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 0.0], [0.0, -25600.0]],  # passes 1e150 near t = 3.2
        [[1e6, 0.0], [0.0, 0.5]],  # RK4 unstable: overflows to inf a dozen steps past 1e150
    ],
    ids=["saturating", "stiff"],
)
def test_smooth_flow_saturates_like_stage_form(matrix, stride):
    # the field never sees a state past a failed guard, so a field that
    # would overflow a few steps later still ends in saturated=True
    g = np.array(matrix)
    q0, v0 = np.array([1.0, 1.0]), np.zeros(2)
    cfg = IntegratorConfig(t0=1.0, t_end=3.93, dt=0.01, record_stride=stride)
    rec = simulate_smooth_nagd(lambda x: g @ x, q0, v0, cfg)
    ref_t, ref_q, ref_v, ref_sat = _reference_nagd(g, np.zeros(2), q0, v0, cfg)
    assert rec.saturated and ref_sat
    assert rec.n_samples == ref_t.shape[0] < cfg.n_steps // stride + 1
    assert np.array_equal(rec.times, ref_t)
    assert _sup_rel(rec.q, ref_q) <= 1e-12
    assert _sup_rel(rec.v, ref_v) <= 1e-12


# --------------------------------------------------------------------------
# bit-identity of lanes and the guard inside the smooth step


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cells", [2**12, 2**16])
@pytest.mark.parametrize("dt", [0.01, 0.5])
def test_modal_lanes_equal_single_runs_bit_for_bit(monkeypatch, cells, dt):
    # the check modes, a saturating lane and the zero mode; a batch and a
    # single lane cut the grid into different chunks (at 2**12 cells, 256
    # and 384 steps), and the 2900 steps at dt = 0.01 into several
    monkeypatch.setattr(dynamics, "_CHUNK_CELLS", cells)
    chunks = _spy_chunks(monkeypatch)
    lams = [0.317, 0.883, 1.0, -0.5, 6 + 1.5j, 1j, -1e4, 0.0]
    cfg = IntegratorConfig(t0=1.0, t_end=30.0, dt=dt)
    times, q, v, rows, saturated = dynamics._modal_rk4(lams, 1.0, 0.0, cfg)
    assert (chunks[0] < cfg.n_steps) == (dt == 0.01)
    assert saturated.tolist() == [False] * 6 + [True, False]
    plain = _plain_modal(lams, 1.0, 0.0, cfg)
    assert np.array_equal(plain[3], rows) and np.array_equal(plain[4], saturated)
    for p in range(len(lams)):
        n = rows[p]
        assert _same_bits(plain[0][:n], times[:n])
        assert _same_bits(plain[1][:n, p], q[:n, p])
        assert _same_bits(plain[2][:n, p], v[:n, p])
    for p, lam in enumerate(lams):
        rec = simulate_modal(lam, 1.0, 0.0, cfg)
        n = rows[p]
        assert rec.n_samples == n and rec.saturated == bool(saturated[p])
        assert _same_bits(rec.times, times[:n])
        assert _same_bits(rec.q, q[:n, p])
        assert _same_bits(rec.v, v[:n, p])


@pytest.mark.parametrize("dt", [0.0099, 0.01, 0.5, 2.0])
def test_block_diagonal_blocks_and_grid_prefixes_equal_single_runs_bit_for_bit(dt):
    # the invariant checks run their r = 3 vector flows as one such batch:
    # each block with its own offset, each on a grid that is a prefix of
    # the batch's, must read back its own run bit for bit
    rng = np.random.RandomState(3)
    blocks = [
        ([[0.4, 0.2], [0.2, 0.8]], [0.3, -0.5], 30.0),
        ([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0], 30.0),
        (rng.randn(3, 3) + 2.0 * np.eye(3), rng.randn(3) * 0.3, 20.0),
        ([[0.0]], [0.0], 60.0),
        ([[0.0]], [0.0], 10.0),  # the free particle of the damping law
    ]
    q0s = [rng.randn(len(b)) for _, b, _ in blocks]
    v0s = [rng.randn(len(b)) * 0.2 for _, b, _ in blocks]
    edges = np.cumsum([0] + [len(b) for _, b, _ in blocks])
    g = np.zeros((edges[-1], edges[-1]))
    for (gi, _, _), lo, hi in zip(blocks, edges, edges[1:]):
        g[lo:hi, lo:hi] = gi
    offset = np.concatenate([b for _, b, _ in blocks])
    batch = simulate_nagd(g, offset, np.concatenate(q0s), np.concatenate(v0s), IntegratorConfig(t_end=60.0, dt=dt))
    assert not batch.saturated
    for (gi, b, t_end), q0, v0, lo, hi in zip(blocks, q0s, v0s, edges, edges[1:]):
        rec = simulate_nagd(gi, b, q0, v0, IntegratorConfig(t_end=t_end, dt=dt))
        n = rec.n_samples
        assert not rec.saturated and n <= batch.n_samples
        assert _same_bits(rec.times, batch.times[:n])
        assert _same_bits(rec.q, batch.q[:n, lo:hi])
        assert _same_bits(rec.v, batch.v[:n, lo:hi])


def test_drive_records_a_short_chunk_that_ends_the_run():
    # x doubles 50 times a step, so x_9 = 2^450 passes the guard and
    # x_10 = 2^500 fails it; 4-step chunks put step 10 second in the third,
    # which advance returns short, ending in the failing state
    cfg = IntegratorConfig(t0=1.0, t_end=2.0, dt=0.0625, record_stride=3)
    assert cfg.n_steps == 16
    buf = np.empty((4, 1, 1))
    calls = []

    def advance(t, s):
        calls.append(t.shape[0])
        out = buf[: t.shape[0]]
        for k in range(t.shape[0]):
            out[k] = s * 2.0**50
            s = out[k]
            if s[0, 0] > dynamics.OVERFLOW_NORM:
                return out[: k + 1]
        return out

    times, record, rows, saturated = dynamics._drive(advance, np.ones((1, 1)), cfg, 4, dynamics._position_sq)
    assert calls == [4, 4, 4]
    assert saturated.tolist() == [True] and rows.tolist() == [4]
    # the rows of steps 0, 3, 6 and 9, all before the failing step 10
    assert _same_bits(times, 1.0 + 0.0625 * np.array([0.0, 3.0, 6.0, 9.0]))
    assert _same_bits(record[:, 0, 0], 2.0 ** np.array([0.0, 150.0, 300.0, 450.0]))


def test_integrator_config_refuses_boolean_stride():
    with pytest.raises(ValueError, match="record_stride"):
        IntegratorConfig(record_stride=True)
    with pytest.raises(ValueError, match="record_stride"):
        IntegratorConfig(record_stride=False)


def test_integrator_config_bounds_the_stride_like_the_steps():
    # a stride of 2**63 or more would overflow the C integers that index
    # the record; one past the last step is valid and records the first row
    for stride in (10**8 + 1, 2**63, 10**30):
        with pytest.raises(ValueError, match="record_stride must be an integer from 1 to 1e8"):
            IntegratorConfig(record_stride=stride)
    cfg = IntegratorConfig(t0=1.0, t_end=1.5, dt=0.01, record_stride=10**8)
    for rec in (simulate_nagd([[1.0]], [0.0], [1.0], [0.0], cfg), simulate_modal(1.0, 1.0, 0.0, cfg)):
        assert rec.times.tolist() == [1.0] and not rec.saturated


@pytest.mark.parametrize("chunk", [10, 256])
def test_smooth_flow_field_sees_only_guarded_states(monkeypatch, chunk):
    # passes 1e150 near t = 3.2: about 220 steps, so 10-step chunks put the
    # failing step inside a later chunk and 256-step chunks inside the first
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
    chunks = _spy_chunks(monkeypatch)
    g = np.diag([1.0, -25600.0])
    seen = []

    def field(x):
        seen.append(x.copy())
        return g @ x

    cfg = IntegratorConfig(t0=1.0, t_end=3.93, dt=0.01)
    rec = simulate_smooth_nagd(field, np.array([1.0, 1.0]), np.zeros(2), cfg)
    assert chunks == [chunk] and chunk < cfg.n_steps
    assert rec.saturated and 1 < rec.n_samples < cfg.n_steps + 1
    # one probe, then four stages for every step taken: the n_samples - 1
    # recorded steps and the step that failed the guard
    assert len(seen) == 1 + 4 * rec.n_samples
    assert np.all(np.isfinite(seen))
    # each step's first stage is the state it starts from, all recorded
    starts = np.array(seen[1::4])
    assert _same_bits(starts, rec.q)
    assert np.all(np.linalg.norm(starts, axis=1) <= dynamics.OVERFLOW_NORM)


# --------------------------------------------------------------------------
# the step loops at the edges of their chunks


def _linear_system(n):
    rng = np.random.RandomState(n + 100)
    a = rng.randn(n, n)
    return a @ a.T / n + 0.2 * np.eye(n), rng.randn(n), rng.randn(n), rng.randn(n)


def _records(loop, size, cfg, system=None):
    """One run of ``loop`` and one of its plain reference, each as (saturated, arrays):
    whether a lane saturated, and each lane's recorded times, q and v (x alone for first order).

    ``system`` is G, or the eigenvalues of the modal lanes; by default a seeded one of ``size``.
    """
    if loop == "modal":
        lams = np.linspace(-0.5, 6.0, size) + 0.75j * (np.arange(size) % 2) if system is None else system

        def lanes(t, q, v, rows, sat):
            return bool(sat.any()), [a for p, n in enumerate(rows) for a in (t[:n], q[:n, p], v[:n, p])]

        return lanes(*dynamics._modal_rk4(lams, 1.0, 0.5, cfg)), lanes(*_plain_modal(lams, 1.0, 0.5, cfg))
    g, b, q0, v0 = _linear_system(size)
    g = g if system is None else system
    if loop == "nagd":
        rec = simulate_nagd(g, b, q0, v0, cfg)
        t, q, v, sat = _plain_nagd(g, b, q0, v0, cfg)
        return (rec.saturated, [rec.times, rec.q, rec.v]), (sat, [t, q, v])
    rec = simulate_first_order(g, b, q0, cfg)
    t, x, sat = _plain_first_order(g, b, q0, cfg)
    return (rec.saturated, [rec.times, rec.q]), (sat, [t, x])


def _same_records(run, plain):
    return run[0] == plain[0] and len(run[1]) == len(plain[1]) and all(map(_same_bits, run[1], plain[1]))


# (loop, n or lanes, steps per chunk): 384 steps, or 2**15 numbers of state
# over the 122 of [x; 1], [x'; 0] at n = 60, or the 256 of 128 lanes
CHUNKS = [("nagd", 1, 384), ("nagd", 4, 384), ("nagd", 40, 384), ("nagd", 60, 268),
          ("first-order", 1, 384), ("first-order", 4, 384), ("first-order", 40, 384),
          ("modal", 1, 384), ("modal", 6, 384), ("modal", 9, 384), ("modal", 128, 128)]


@pytest.mark.parametrize("length", ["short", "multiple", "tail"])
@pytest.mark.parametrize("loop, size, chunk", CHUNKS)
def test_loops_match_plain_references_at_chunk_edges(monkeypatch, loop, size, chunk, length):
    # one step short of a chunk, two whole chunks, and two and a 3-step tail
    steps = {"short": chunk - 1, "multiple": 2 * chunk, "tail": 2 * chunk + 3}[length]
    chunks = _spy_chunks(monkeypatch)
    cfg = IntegratorConfig(t0=1.0, t_end=1.0 + 0.01 * steps, dt=0.01, record_stride=3)
    assert cfg.n_steps == steps
    run, plain = _records(loop, size, cfg)
    assert chunks[0] == min(chunk, steps)
    assert not run[0] and _same_records(run, plain)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("loop", ["nagd", "first-order", "modal"])
def test_loops_match_plain_references_when_saturating_mid_chunk(monkeypatch, loop, stride):
    # growth about e^{49 t} (nagd, modal) or e^{50 t} (first order) passes
    # 1e150 some 690-710 steps in, inside the second 384-step chunk
    chunks = _spy_chunks(monkeypatch)
    cfg = IntegratorConfig(t0=1.0, t_end=11.0, dt=0.01, record_stride=stride)
    system = {"nagd": np.diag([1.0, -2400.0]), "first-order": np.diag([1.0, -50.0]),
              "modal": np.array([0.883, -2400.0, 6 + 1.5j])}[loop]
    run, plain = _records(loop, len(system), cfg, system)
    assert chunks[0] == 384
    rows = min(a.shape[0] for a in run[1])  # of the saturating lane
    assert run[0] and 384 // stride + 1 < rows < 768 // stride
    assert _same_records(run, plain)
