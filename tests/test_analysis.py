"""Rate fits, Lyapunov and Chetaev certificates, flux identity, null spaces."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagdyn import analysis, cli, experiments, special, spectral
from nagdyn.analysis import fit_rate
from nagdyn.dynamics import IntegratorConfig, TrajectoryRecord, simulate_modal, simulate_nagd
from nagdyn.errors import InsufficientPoints, NonPositiveSeries, NotApplicable, TrivialNullspace

POTENTIAL = np.array([[0.4, 0.2], [0.2, 0.8]])
ROT = np.array([[6.0, 1.5], [-1.5, 6.0]])
MIXED = np.diag([1.0, -0.5])


# --------------------------------------------------------------------------
# fit_rate


def test_fit_algebraic_exact_power_law():
    t = np.linspace(1.0, 100.0, 4000)
    fit = fit_rate(t, 3.0 * t**-1.5)
    assert fit.kind == "algebraic"
    assert abs(fit.slope + 1.5) <= 1e-10
    assert abs(fit.intercept - math.log(3.0)) <= 1e-10
    assert fit.r_squared > 0.999999
    # the default window runs from t = 20 to the end of the record
    assert fit.window == (pytest.approx(20.0, abs=0.03), t[-1])
    assert fit.n_points == int(np.sum(t >= 20.0))


def test_fit_exponential_exact():
    t = np.linspace(1.0, 60.0, 6000)
    fit = fit_rate(t, 0.2 * np.exp(0.707 * t), kind="exponential")
    assert abs(fit.slope - 0.707) <= 1e-10
    # the same default window as an algebraic fit: t = 20 to the end of the record
    assert fit.window == (pytest.approx(20.0, abs=0.01), t[-1])
    assert fit.n_points == int(np.sum(t >= 20.0))


def test_fit_envelope_oscillatory():
    t = np.arange(1.0, 100.0, 0.01)
    fit = fit_rate(t, t**-1.5 * np.cos(5.0 * t), envelope=True)
    assert fit.envelope
    assert fit.n_points >= 20
    # peaks sit within half a grid cell of the cosine maxima
    assert abs(fit.slope + 1.5) <= 0.02


def test_fit_detrend_removes_envelope_bias():
    t = np.linspace(1.0, 60.0, 6000)
    y = t**-1.5 * np.exp(0.3 * t)
    detrended = fit_rate(t, y, kind="exponential", detrend_log_power=-1.5)
    raw = fit_rate(t, y, kind="exponential")
    assert abs(detrended.slope - 0.3) <= 1e-10
    # the raw fit sees rate - d/dt(1.5 log t) ~ rate - 1.5/t_mid
    assert raw.slope < 0.3 - 0.02


@given(
    st.floats(min_value=-3.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=40, deadline=None)
def test_fit_recovers_synthetic_power(p, amp):
    t = np.linspace(2.0, 90.0, 500)
    fit = fit_rate(t, amp * t**p, window=(2.0, 90.0))
    assert abs(fit.slope - p) <= 1e-8


def test_fit_window_clipped_to_data():
    t = np.linspace(1.0, 50.0, 500)
    fit = fit_rate(t, t**-1.5, window=(20.0, 100.0))
    assert fit.window[0] >= 20.0
    assert fit.window[1] <= 50.0
    # a record that starts after t = 20 is fitted from its first time
    late = np.linspace(25.0, 100.0, 751)
    assert fit_rate(late, late**-1.5).window == (25.0, 100.0)
    assert fit_rate(late, late**-1.5, window=(20.0, 60.0)).window == (25.0, pytest.approx(60.0))


def test_fit_errors():
    t = np.linspace(1.0, 10.0, 100)
    with pytest.raises(ValueError):
        fit_rate(t, t, kind="loglinear")
    with pytest.raises(InsufficientPoints, match=r"the record ends at t = 10, before the fit window starts at 20$"):
        fit_rate(t, t**-1.0, kind="exponential")
    with pytest.raises(InsufficientPoints, match=r"the record ends at t = 10, before the fit window starts at 80$"):
        fit_rate(t, t**-1.0, window=(80.0, 90.0))
    with pytest.raises(InsufficientPoints, match="empty"):
        fit_rate([], [])
    with pytest.raises(NonPositiveSeries):
        fit_rate(t, np.sin(t), window=(1.0, 10.0))
    with pytest.raises(InsufficientPoints):
        # monotone series has no interior maxima
        fit_rate(t, t**-1.0, window=(1.0, 10.0), envelope=True)


# --------------------------------------------------------------------------
# Lyapunov certificate


@pytest.fixture(scope="module")
def potential_record():
    return simulate_nagd(POTENTIAL, None, np.array([0.5, 0.3]), np.zeros(2),
                         IntegratorConfig(t0=1.0, t_end=100.0, dt=0.01))


def test_lyapunov_descends_on_potential_game(potential_record):
    lyap = analysis.lyapunov_series(potential_record, POTENTIAL)
    assert lyap.applicable
    assert np.all(lyap.V >= 0.0)
    assert np.all(np.diff(lyap.V) <= 1e-8 * lyap.V[0])
    assert np.all(lyap.vdot_analytic <= 0.0)
    assert np.max(np.abs(lyap.skew_residual)) == 0.0


def test_lyapunov_numeric_derivative_agrees(potential_record):
    lyap = analysis.lyapunov_series(potential_record, POTENTIAL)
    num = lyap.vdot_numeric[2:-2]
    ana = lyap.vdot_analytic[2:-2]
    rel = np.abs(num - ana) / np.maximum(1.0, np.abs(ana))
    assert math.sqrt(float(np.mean(rel**2))) <= 1e-4


def test_lyapunov_random_psd_monotone():
    rng = np.random.RandomState(11)
    for _ in range(10):
        n = rng.randint(2, 5)
        a = rng.randn(n, n)
        g = a.T @ a / n
        rec = simulate_nagd(g, None, rng.randn(n), rng.randn(n),
                            IntegratorConfig(t0=1.0, t_end=30.0, dt=0.01))
        lyap = analysis.lyapunov_series(rec, g)
        assert lyap.applicable
        assert np.all(np.diff(lyap.V) <= 1e-8 * max(1.0, lyap.V[0]))


def test_lyapunov_needs_positive_semidefinite():
    # symmetric but negative definite: V is not a certificate here
    g = -0.5 * np.eye(2)
    rec = simulate_nagd(g, None, np.array([1.0, 0.0]), np.zeros(2),
                        IntegratorConfig(t0=1.0, t_end=5.0, dt=0.01))
    lyap = analysis.lyapunov_series(rec, g)
    assert not lyap.applicable
    assert lyap.obstruction == "not positive semidefinite"
    psd = analysis.lyapunov_series(rec, np.array([[0.25, 0.25], [0.25, 0.25]]))
    assert psd.applicable and psd.obstruction == ""


def test_lyapunov_skew_obstruction():
    rec = simulate_nagd(ROT, None, np.array([1.0, 0.0]), np.zeros(2),
                        IntegratorConfig(t0=1.0, t_end=10.0, dt=0.01))
    lyap = analysis.lyapunov_series(rec, ROT)
    assert not lyap.applicable
    assert lyap.obstruction == "not symmetric"
    k = 500
    t = rec.times[k]
    expected = t**2 * (rec.v[k] @ (ROT - ROT.T) @ rec.q[k])
    assert lyap.skew_residual[k] == pytest.approx(expected, rel=1e-12)
    assert np.max(np.abs(lyap.skew_residual)) > 0.0


@pytest.mark.parametrize("m, n", [(50_001, 4), (401, 40)])
def test_lyapunov_series_bytes_do_not_depend_on_blas_threads(m, n):
    # these tall records cross OpenBLAS's threading threshold; the CLI runs
    # BLAS on one thread, which must not change a byte of the certificate
    api = cli._blas_thread_api()
    if api is None or (os.cpu_count() or 1) < 2:
        pytest.skip("needs OpenBLAS's thread API and two CPUs")
    set_threads, get_threads = api
    rng = np.random.default_rng(m + n)
    g = rng.standard_normal((n, n))  # not symmetric, so the skew product is not zero
    rec = TrajectoryRecord(
        times=np.linspace(1.0, 500.0, m),
        q=rng.standard_normal((m, n)),
        v=rng.standard_normal((m, n)),
        saturated=False,
        meta={},
    )
    original = get_threads()
    series = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            series.append(analysis.lyapunov_series(rec, g))
    finally:
        set_threads(original)
    one, two = series
    for name in ("V", "vdot_analytic", "skew_residual"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name


# --------------------------------------------------------------------------
# Chetaev certificates


MU = math.sqrt(0.5)
T0_CHETAEV = 6.0 / MU + 1.0  # 9.4852813742385695


def _chetaev_record(sign):
    cfg = IntegratorConfig(t0=T0_CHETAEV, t_end=T0_CHETAEV + 30.0, dt=0.01)
    return simulate_nagd(MIXED, None, np.array([0.0, sign]), np.array([0.0, sign]), cfg)


def test_chetaev_negative_certificate():
    rec = _chetaev_record(+1.0)
    che = analysis.chetaev_negative(rec, np.array([0.0, 1.0]), MU)
    assert che.meets_entry_condition
    assert che.t0_required == pytest.approx(T0_CHETAEV, abs=1e-12)
    assert np.all(che.in_omega)
    assert np.all(che.W > 0.0)
    # the certificate guarantees logarithmic growth of at least mu/6
    assert np.min(che.growth_ratio[1:-1]) >= MU / 6.0 - 1e-3
    span = rec.times[-1] - rec.times[0]
    assert che.W[-1] / che.W[0] >= math.exp(MU / 6.0 * span)


def test_chetaev_negative_outside_cone():
    # mirrored initial data stays in the opposite half-plane: xi < 0 throughout
    rec = _chetaev_record(-1.0)
    che = analysis.chetaev_negative(rec, np.array([0.0, 1.0]), MU)
    assert not np.any(che.in_omega)


def test_chetaev_run_orients_the_cone_by_the_side_xi_ends_on():
    # fig3's game from q0 = [1, 1] and from its mirror [1, -1]: the negative
    # mode's coordinate changes sign exactly, W is even in it, and the
    # fraction of the record in the cone must not depend on the eigenvector's sign
    runs = [
        experiments.run_experiment(experiments._experiment("m", [[1.0, 0.0], [0.0, -0.5]], q0, [0.0, 0.0], 60.0, ["chetaev"]))
        for q0 in ([1.0, 1.0], [1.0, -1.0])
    ]
    (_, first, header, first_cols), (_, mirrored, _, mirrored_cols) = runs
    w = header.index("W")
    assert np.array_equal(first_cols[w], mirrored_cols[w])
    fractions = [run["chetaev_negative"]["fraction_in_omega"] for run in (first, mirrored)]
    assert fractions[0] > 0.9
    assert fractions[1].hex() == fractions[0].hex()


def test_chetaev_negative_growth_ratio_is_the_three_point_stencil():
    # centred differences of log W inside, one-sided at both ends, NaN
    # where W <= 0, also on a two-row record
    two_rows = IntegratorConfig(t0=T0_CHETAEV, t_end=T0_CHETAEV + 0.01, dt=0.01)
    short = simulate_nagd(MIXED, None, np.array([0.0, 1.0]), np.array([0.0, 1.0]), two_rows)
    for rec in (_chetaev_record(+1.0), _chetaev_record(-1.0), short):
        che = analysis.chetaev_negative(rec, np.array([0.0, 1.0]), MU)
        lw = np.log(np.where(che.W > 0.0, che.W, np.nan))
        h = rec.times[1] - rec.times[0]
        want = np.concatenate([[(lw[1] - lw[0]) / h], (lw[2:] - lw[:-2]) / (2.0 * h), [(lw[-1] - lw[-2]) / h]])
        assert np.array_equal(che.growth_ratio, want, equal_nan=True)


def test_chetaev_negative_validation():
    rec = _chetaev_record(+1.0)
    with pytest.raises(ValueError):
        analysis.chetaev_negative(rec, np.array([0.0, 1.0]), -1.0)
    with pytest.raises(ValueError):
        analysis.chetaev_negative(rec, np.array([0.0, 1.0, 0.0]), MU)
    with pytest.raises(ValueError):
        analysis.chetaev_negative(rec, np.array([1.0j, 1.0]), MU)


def test_chetaev_complex_pure_rotation():
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = spectral.eigendecompose(g)
    idx = int(np.argmax(spec.eigenvalues.imag))
    rec = simulate_nagd(g, None, np.array([1.0, 0.0]), np.zeros(2),
                        IntegratorConfig(t0=1.0, t_end=60.0, dt=0.01))
    che = analysis.chetaev_complex(rec, spec.left_vectors[idx])
    beta = math.sqrt(0.5)  # Im sqrt(i)
    assert abs(che.fit.slope - beta) <= 0.1 * beta
    assert np.allclose(che.rho, np.hypot(che.xi, che.eta), atol=0.0)


def test_chetaev_complex_rotational_pair():
    spec = spectral.eigendecompose(ROT)
    idx = int(np.argmax(spec.eigenvalues.imag))
    rec = simulate_nagd(ROT, None, np.array([1.0, 0.0]), np.zeros(2),
                        IntegratorConfig(t0=1.0, t_end=60.0, dt=0.01))
    che = analysis.chetaev_complex(rec, spec.left_vectors[idx])
    beta = spectral.classify_eigenvalue(complex(spec.eigenvalues[idx])).rate
    assert abs(che.fit.slope - beta) <= 0.1 * beta


def test_chetaev_complex_zero_projection_rejected():
    # third coordinate decouples and starts at zero, so rho vanishes identically
    g = np.zeros((3, 3))
    g[:2, :2] = ROT
    g[2, 2] = 5.0
    rec = simulate_nagd(g, None, np.array([1.0, 0.0, 0.0]), np.zeros(3),
                        IntegratorConfig(t0=1.0, t_end=60.0, dt=0.01))
    with pytest.raises(NonPositiveSeries):
        analysis.chetaev_complex(rec, np.array([0.0, 0.0, 1.0 + 0.0j]))


# --------------------------------------------------------------------------
# flux identity


def _modal_series(lam, t_end=50.0):
    sol = special.make_modal_solution(lam, 1.0, 1.0, 0.5j)
    t = np.arange(1.0, t_end + 0.005, 0.01)
    series = special.eval_modal_series(sol, t)
    return t, series.y, series.ydot


@pytest.mark.parametrize("lam", [1.0j, 6.0 + 1.5j])
def test_energy_identity_on_closed_form(lam):
    t, y, yd = _modal_series(lam)
    assert analysis.energy_identity_residual(t, y, yd, lam) <= 1e-5


@pytest.mark.parametrize("r", [2.0, 4.0, 5.0])
def test_energy_identity_honours_the_damping_exponent(r):
    # d/dt (t^r Q) = 2i Im(lam) t^r |y|^2 holds at damping r/t; the r = 3
    # factor t^3 leaves a residual of order 0.1 on the same run
    lam = 6.0 + 1.5j
    rec = simulate_modal(lam, 1.0, 0.5j, IntegratorConfig(t0=1.0, t_end=30.0, dt=0.01, damping_exponent=r))
    assert analysis.energy_identity_residual(rec.times, rec.q, rec.v, lam, r) <= 1e-5
    assert analysis.energy_identity_residual(rec.times, rec.q, rec.v, lam) > 0.1


def test_energy_identity_real_is_not_applicable():
    t, y, yd = _modal_series(1.0j)
    with pytest.raises(NotApplicable):
        analysis.energy_identity_residual(t, y, yd, 0.883)


def test_energy_flux_starts_at_zero_for_real_data():
    rec = simulate_modal(1.0j, 1.0, 0.5, IntegratorConfig(t0=1.0, t_end=2.0, dt=0.01))
    q0 = rec.q[0] * np.conj(rec.v[0]) - rec.v[0] * np.conj(rec.q[0])
    assert q0 == 0.0  # real initial data: Q(t0) = y ydot - ydot y exactly


def test_energy_identity_zero_series():
    t = np.linspace(1.0, 10.0, 200)
    z = np.zeros_like(t, dtype=complex)
    assert analysis.energy_identity_residual(t, z, z, 1.0j) == 0.0


def test_energy_identity_validation():
    t = np.linspace(1.0, 10.0, 200)
    y = np.exp(1j * t)
    with pytest.raises(ValueError):
        analysis.energy_identity_residual(t, y[:-1], y[:-1], 1.0j)


# --------------------------------------------------------------------------
# modal projection and null-space tracking


def test_modal_project_diagonal_decouples():
    rec = simulate_nagd(MIXED, None, np.array([1.0, 1.0]), np.zeros(2),
                        IntegratorConfig(t0=1.0, t_end=10.0, dt=0.01))
    y, yd = analysis.modal_project(rec, np.array([1.0, 0.0]))
    assert np.array_equal(y, rec.q[:, 0])
    assert np.array_equal(yd, rec.v[:, 0])


def test_modal_projection_solves_scalar_equation(potential_record):
    spec = spectral.eigendecompose(POTENTIAL)
    rec = potential_record
    t = rec.times
    for i in range(2):
        lam = complex(spec.eigenvalues[i])
        y, yd = analysis.modal_project(rec, spec.left_vectors[i])
        ydd = analysis._fd_derivative(t, yd)
        resid = ydd + (3.0 / t) * yd + lam * y
        scale = float(np.max(np.abs(y))) * max(1.0, abs(lam))
        assert np.max(np.abs(resid[2:-2])) <= 1e-5 * scale


def test_modal_project_validation(potential_record):
    with pytest.raises(ValueError):
        analysis.modal_project(potential_record, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_nullspace_limit_matches_long_run(r):
    t0, y0, yd0 = 1.0, 0.4, -0.6
    target = spectral.nullspace_limit(t0, y0, yd0, r)
    assert target == pytest.approx({3.0: 0.1, 5.0: 0.25}[r], abs=1e-15)  # y0 + t0 yd0 / (r - 1)
    rec = simulate_modal(0.0, y0, yd0, IntegratorConfig(t0=t0, t_end=200.0, dt=0.01, damping_exponent=r))
    assert abs(rec.q[-1].real - target) <= 1e-4  # tail decays like t^(1 - r)
    with pytest.raises(ValueError):
        spectral.nullspace_limit(0.0, 1.0, 1.0, r)
    # at r <= 1 the velocity ydot0 (t0/t)^r is not integrable: the mode drifts
    with pytest.raises(NotApplicable, match="r = 1.0 <= 1"):
        spectral.nullspace_limit(t0, y0, yd0, 1.0)


def test_distance_to_nullspace_rank_one():
    g = 0.25 * np.ones((2, 2))
    rec = simulate_nagd(g, None, np.array([0.5, -0.3]), np.array([0.1, 0.1]),
                        IntegratorConfig(t0=1.0, t_end=100.0, dt=0.01))
    dist = analysis.distance_to_nullspace(rec, g)
    assert dist.nullspace_dim == 1
    # distance is the coordinate along the range direction (1,1)/sqrt(2)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert dist.distance[0] == pytest.approx(abs(np.array([0.5, -0.3]) @ u), rel=1e-12)
    fit = fit_rate(rec.times, dist.distance, window=(20.0, 100.0), envelope=True)
    assert -1.7 <= fit.slope <= -1.3


def test_distance_in_nullspace_is_zero():
    g = 0.25 * np.ones((2, 2))
    rec = simulate_nagd(g, None, np.array([1.0, -1.0]), np.zeros(2),
                        IntegratorConfig(t0=1.0, t_end=5.0, dt=0.01))
    dist = analysis.distance_to_nullspace(rec, g)
    assert np.max(dist.distance) <= 1e-12


def test_distance_full_rank_raises(potential_record):
    with pytest.raises(TrivialNullspace):
        analysis.distance_to_nullspace(potential_record, POTENTIAL)


# --------------------------------------------------------------------------
# the certificates judge hypotheses within the verdict's tolerance


def _short_record(g):
    return simulate_nagd(g, None, np.ones(2), config=IntegratorConfig(t0=1.0, t_end=1.1, dt=0.01))


def test_lyapunov_symmetric_within_the_verdict_tolerance():
    # ||G - G^T||_F = 1.4e-10 lies inside matrix_tolerance(G), about 2.3e-9
    g = np.array([[1.0, 0.5], [0.5000000001, 2.0]])
    assert spectral.eigendecompose(g).is_symmetric
    lyap = analysis.lyapunov_series(_short_record(g), g)
    assert lyap.applicable and lyap.obstruction == ""


def test_lyapunov_semidefinite_within_the_verdict_tolerance():
    # -1e-11 is the Zero eigenvalue of the verdict, not a negative one
    g = np.diag([1.0, -1e-11])
    verdict = spectral.classify_matrix(spectral.eigendecompose(g))
    assert verdict.nagd is spectral.NagdVerdict.STABLE_TO_NULLSPACE
    lyap = analysis.lyapunov_series(_short_record(g), g)
    assert lyap.applicable and lyap.obstruction == ""


def test_nullspace_within_the_verdict_tolerance():
    # 5e-10 is the Zero eigenvalue of the verdict, so its axis is the null space
    g = np.diag([1.0, 5e-10])
    verdict = spectral.classify_matrix(spectral.eigendecompose(g))
    assert verdict.nagd is spectral.NagdVerdict.STABLE_TO_NULLSPACE
    dist = analysis.distance_to_nullspace(_short_record(g), g)
    assert dist.nullspace_dim == 1
    assert np.allclose(np.abs(dist.basis[:, 0]), [0.0, 1.0])
