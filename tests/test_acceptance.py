"""Acceptance gate: the thirteen numbered end-to-end criteria.

Each test exercises one published claim at its stated tolerance and
reports a single ``ACCEPTANCE NN PASS/FAIL`` line (collected into the
terminal summary by conftest).  Heavy simulations are shared through
module-scoped fixtures so the whole gate stays well under a minute.
"""

import math

import numpy as np
import pytest

import conftest
from nagdyn import analysis, special, spectral
from nagdyn.dynamics import (
    IntegratorConfig,
    finite_difference_jacobian,
    simulate_first_order,
    simulate_modal,
    simulate_nagd,
    simulate_smooth_nagd,
)

POTENTIAL = np.array([[0.4, 0.2], [0.2, 0.8]])
ROTATIONAL = np.array([[6.0, 1.5], [-1.5, 6.0]])
INDEFINITE = np.diag([1.0, -0.5])
SEMIDEFINITE = 0.25 * np.ones((2, 2))
PURE_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
THREE_PLAYER = np.array([[1.0, 0.3, 0.2], [0.3, 0.8, 0.25], [0.2, 0.25, 0.6]])
FOUR_PLAYER = np.array(
    [
        [1.2, 0.2, 0.15, 0.1],
        [0.2, 0.9, 0.2, 0.15],
        [0.15, 0.2, 0.7, 0.1],
        [0.1, 0.15, 0.1, 0.5],
    ]
)

DT = 0.01


def _crit(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    conftest.acceptance_log.append(line)
    print(line)
    assert ok, line


def _grid(t_end: float, t0: float = 1.0, dt: float = DT) -> IntegratorConfig:
    return IntegratorConfig(t0=t0, t_end=t_end, dt=dt)


# --------------------------------------------------------------------------
# shared simulations


@pytest.fixture(scope="module")
def potential_run():
    return simulate_nagd(POTENTIAL, None, np.array([0.5, 0.3]), np.zeros(2), _grid(100.0))


@pytest.fixture(scope="module")
def rotational_run():
    return simulate_nagd(ROTATIONAL, None, np.array([1.0, 0.0]), np.zeros(2), _grid(60.0))


@pytest.fixture(scope="module")
def multiplayer_runs():
    r3 = simulate_nagd(THREE_PLAYER, None, np.array([0.5, 0.3, -0.4]), np.zeros(3), _grid(100.0))
    r4 = simulate_nagd(FOUR_PLAYER, None, np.array([0.5, 0.3, -0.4, 0.2]), np.zeros(4), _grid(100.0))
    return r3, r4


# --------------------------------------------------------------------------
# criteria


def test_01_symmetric_pd_spectrum_and_decay(potential_run):
    spec = spectral.eigendecompose(POTENTIAL)
    eigs = sorted(spec.eigenvalues.real)
    spectrum_ok = all(abs(e - q) <= 0.005 for e, q in zip(eigs, (0.317, 0.883)))
    norm_q = np.linalg.norm(potential_run.q, axis=1)
    fit = analysis.fit_rate(potential_run.times, norm_q, window=(30.0, 100.0), envelope=True)
    slope_ok = -1.7 <= fit.slope <= -1.3
    _crit(
        1,
        spectrum_ok and slope_ok,
        f"eigenvalues {eigs[0]:.4f}, {eigs[1]:.4f} (want 0.317, 0.883 +-0.005); "
        f"log-log slope {fit.slope:.4f} in [-1.7, -1.3]",
    )


def test_02_complex_reversal(rotational_run):
    norm_q = np.linalg.norm(rotational_run.q, axis=1)
    fit = analysis.fit_rate(
        rotational_run.times,
        norm_q,
        kind="exponential",
        window=(20.0, 60.0),
        detrend_log_power=-1.5,
    )
    rate_ok = abs(fit.slope - 0.3041) <= 0.1 * 0.3041
    fo_cfg = IntegratorConfig(t0=1.0, t_end=6.0, dt=0.002)
    fo = simulate_first_order(ROTATIONAL, None, np.array([1.0, 0.0]), fo_cfg)
    norms = np.linalg.norm(fo.q, axis=1)
    idx = int(round((5.0 - fo_cfg.t0) / fo_cfg.dt))
    ratio = float(norms[idx] / norms[0])
    fo_ok = ratio <= math.exp(-24.0) * (1.0 + 1e-3)
    _crit(
        2,
        rate_ok and fo_ok,
        f"accelerated rate {fit.slope:.4f} (want 0.3041 +-10%); "
        f"first-order |x(5)|/|x0| = {ratio:.4e} <= e^-24 (1+1e-3)",
    )


def test_03_negative_eigenvalue_escape():
    rec = simulate_nagd(INDEFINITE, None, np.array([1.0, 1.0]), np.zeros(2), _grid(60.0))
    x2_fit = analysis.fit_rate(
        rec.times,
        np.abs(rec.q[:, 1]),
        kind="exponential",
        window=(20.0, 60.0),
        detrend_log_power=-1.5,
    )
    x1_fit = analysis.fit_rate(rec.times, rec.q[:, 0], window=(20.0, 60.0), envelope=True)
    rate_ok = abs(x2_fit.slope - 0.7071) <= 0.05 * 0.7071
    slope_ok = -1.7 <= x1_fit.slope <= -1.3
    _crit(
        3,
        rate_ok and slope_ok,
        f"|x2| rate {x2_fit.slope:.4f} (want 0.7071 +-5%); x1 envelope slope {x1_fit.slope:.4f}",
    )


def test_04_semidefinite_nullspace_limit():
    q0, v0 = np.array([0.5, -0.3]), np.array([0.1, 0.1])
    rec = simulate_nagd(SEMIDEFINITE, None, q0, v0, _grid(100.0))
    dist = analysis.distance_to_nullspace(rec, SEMIDEFINITE)
    fit = analysis.fit_rate(rec.times, dist.distance, window=(20.0, 100.0), envelope=True)
    slope_ok = -1.7 <= fit.slope <= -1.3
    w = dist.basis[:, 0]
    target = spectral.nullspace_limit(1.0, float(q0 @ w), float(v0 @ w))
    err = abs(float(rec.q[-1] @ w) - target)
    _crit(
        4,
        slope_ok and err <= 1e-3,
        f"distance slope {fit.slope:.4f}; zero-mode coordinate off by {err:.2e} (tol 1e-3)",
    )


def test_05_multiplayer_spectra_and_decay(multiplayer_runs):
    quoted = {3: (0.43, 0.62, 1.35), 4: (0.44, 0.58, 0.87, 1.41)}
    spectra_ok = True
    for g, want in ((THREE_PLAYER, quoted[3]), (FOUR_PLAYER, quoted[4])):
        eigs = sorted(spectral.eigendecompose(g).eigenvalues.real)
        spectra_ok &= tuple(round(e, 2) for e in eigs) == want
    slopes = []
    for rec in multiplayer_runs:
        norm_q = np.linalg.norm(rec.q, axis=1)
        fit = analysis.fit_rate(rec.times, norm_q, window=(30.0, 100.0), envelope=True)
        slopes.append(fit.slope)
    slopes_ok = all(-1.7 <= s <= -1.3 for s in slopes)
    _crit(
        5,
        bool(spectra_ok) and slopes_ok,
        f"spectra match to 2 decimals: {bool(spectra_ok)}; decay slopes {slopes[0]:.4f}, {slopes[1]:.4f}",
    )


def test_06_purely_imaginary_pair():
    rec = simulate_nagd(PURE_ROTATION, None, np.array([1.0, 0.0]), np.zeros(2), _grid(60.0))
    norm_q = np.linalg.norm(rec.q, axis=1)
    fit = analysis.fit_rate(
        rec.times,
        norm_q,
        kind="exponential",
        window=(20.0, 60.0),
        detrend_log_power=-1.5,
    )
    beta = math.sqrt(0.5)
    rate_ok = abs(fit.slope - 0.7071) <= 0.05 * 0.7071
    fo = simulate_first_order(PURE_ROTATION, None, np.array([1.0, 0.0]), _grid(50.0))
    drift = float(np.max(np.abs(np.linalg.norm(fo.q, axis=1) - 1.0)))
    fo_ok = drift <= 1e-6
    _crit(
        6,
        rate_ok and fo_ok,
        f"accelerated rate {fit.slope:.4f} (want {beta:.4f} +-5%); "
        f"first-order norm drift {drift:.2e} (tol 1e-6)",
    )


def test_07_closed_form_oracle():
    worst_modal = 0.0
    for lam in (0.317, 0.883, 1.0, -0.5, complex(6.0, 1.5)):
        sol = special.make_modal_solution(lam, 1.0, 1.0, 0.0)
        rec = simulate_modal(lam, 1.0, 0.0, _grid(50.0))
        series = special.eval_modal_series(sol, rec.times)
        scale = float(np.max(np.abs(series.y)))
        worst_modal = max(worst_modal, float(np.max(np.abs(series.y - rec.q))) / scale)
    worst_wronskian = 0.0
    for z in np.linspace(0.5, 40.0, 24):
        j0, j1 = special.bessel_j0(z), special.bessel_j1(z)
        y0, y1 = special.bessel_y0(z), special.bessel_y1(z)
        target = 2.0 / (math.pi * z)
        defect = j1 * (y0 - y1 / z) - (j0 - j1 / z) * y1 - target
        worst_wronskian = max(worst_wronskian, abs(defect) / abs(target))
    for x in np.linspace(0.5, 30.0, 20):
        i0, i1 = special.bessel_i0(x), special.bessel_i1(x)
        k0, k1 = special.bessel_k0(x), special.bessel_k1(x)
        defect = i1 * (-k0 - k1 / x) - (i0 - i1 / x) * k1 + 1.0 / x
        worst_wronskian = max(worst_wronskian, abs(defect) * x)
    _crit(
        7,
        worst_modal <= 1e-5 and worst_wronskian <= 1e-10,
        f"modal sup-relative error {worst_modal:.2e} (tol 1e-5); "
        f"Wronskian defect {worst_wronskian:.2e} (tol 1e-10)",
    )


def test_08_lyapunov_certificate(potential_run, multiplayer_runs):
    worst_rise, worst_rms = 0.0, 0.0
    for rec, g in ((potential_run, POTENTIAL), (multiplayer_runs[0], THREE_PLAYER), (multiplayer_runs[1], FOUR_PLAYER)):
        lyap = analysis.lyapunov_series(rec, g)
        assert lyap.applicable
        worst_rise = max(worst_rise, float(np.max(np.diff(lyap.V))) / lyap.V[0])
        num, ana = lyap.vdot_numeric[2:-2], lyap.vdot_analytic[2:-2]
        rel = np.abs(num - ana) / np.maximum(1.0, np.abs(ana))
        worst_rms = max(worst_rms, math.sqrt(float(np.mean(rel**2))))
    _crit(
        8,
        worst_rise <= 1e-8 and worst_rms <= 1e-4,
        f"max V increase {worst_rise:.2e} of V(t0) (tol 1e-8); "
        f"Vdot numeric-vs-analytic RMS {worst_rms:.2e} (tol 1e-4)",
    )


def test_09_chetaev_cone():
    mu = math.sqrt(0.5)
    t0 = 6.0 / mu + 1.0  # 9.4852813742385695
    cfg = IntegratorConfig(t0=t0, t_end=t0 + 30.0, dt=DT)
    rec = simulate_nagd(INDEFINITE, None, np.array([0.0, 1.0]), np.array([0.0, 1.0]), cfg)
    che = analysis.chetaev_negative(rec, np.array([0.0, 1.0]), mu)
    membership_ok = bool(np.all(che.in_omega))
    min_ratio = float(np.min(che.growth_ratio[1:-1]))
    ratio_ok = min_ratio >= mu / 6.0 - 1e-3
    _crit(
        9,
        che.meets_entry_condition and membership_ok and ratio_ok,
        f"entry at t0 = {t0:.3f}; in Omega at all {rec.n_samples} samples: {membership_ok}; "
        f"min growth ratio {min_ratio:.5f} >= mu/6 - 1e-3 = {mu / 6.0 - 1e-3:.5f}",
    )


def test_10_energy_identity():
    worst = 0.0
    for lam in (1.0j, complex(6.0, 1.5)):
        rec = simulate_modal(lam, 1.0, 0.0, _grid(50.0))
        worst = max(worst, analysis.energy_identity_residual(rec.times, rec.q, rec.v, lam))
    rec = simulate_modal(1.0j, 1.0, 0.25, _grid(2.0))
    q0 = rec.q[0] * np.conj(rec.v[0]) - rec.v[0] * np.conj(rec.q[0])
    exact_zero = q0 == 0.0
    _crit(
        10,
        worst <= 1e-5 and exact_zero,
        f"flux residual {worst:.2e} (tol 1e-5); Q(t0) for real data = {q0} (exact zero: {exact_zero})",
    )


def test_11_translation_invariance():
    rng = np.random.RandomState(3)
    basis, _ = np.linalg.qr(rng.randn(3, 3))
    g = basis @ np.diag([0.5, 1.1, 2.3]) @ basis.T
    b = rng.randn(3)
    x_star = np.linalg.solve(g, -b)
    q0, v0 = rng.randn(3), rng.randn(3)
    cfg = _grid(20.0)
    affine = simulate_nagd(g, b, q0, v0, cfg)
    shifted = simulate_nagd(g, None, q0 - x_star, v0, cfg)
    worst = float(np.max(np.abs(affine.q - (shifted.q + x_star))))
    _crit(11, worst <= 1e-10, f"affine vs shifted-homogeneous sup difference {worst:.2e} (tol 1e-10)")


def test_12_boundedness_bound():
    rng = np.random.RandomState(5)
    worst_margin = -np.inf
    for trial in range(20):
        n = int(rng.randint(2, 5))
        u, _ = np.linalg.qr(rng.randn(n, n))
        vt, _ = np.linalg.qr(rng.randn(n, n))
        kappa_target = 1.0 + rng.rand() * 80.0
        p = u @ np.diag(np.linspace(1.0, kappa_target, n)) @ vt
        lams = rng.rand(n) * 3.0 + 0.05
        if trial % 7 == 0:
            lams[0] = 0.0  # exercise the zero-mode coefficient t0/2
        g = p @ np.diag(lams) @ np.linalg.inv(p)
        spec = spectral.eigendecompose(g)
        assert spec.kappa_P <= 100.0
        q0, v0 = rng.randn(n), rng.randn(n)
        bound = spectral.boundedness_bound(
            spec, 1.0, float(np.linalg.norm(q0)), float(np.linalg.norm(v0))
        )
        rec = simulate_nagd(g, None, q0, v0, _grid(30.0))
        sup = float(np.max(np.linalg.norm(rec.q, axis=1)))
        worst_margin = max(worst_margin, sup / (bound * (1.0 + 1e-6)))
    _crit(
        12,
        worst_margin <= 1.0,
        f"20 random diagonalizable systems: worst sup|q| / bound = {worst_margin:.4f} (must be <= 1)",
    )


def test_13_smooth_game_instability():
    def field(x):
        return ROTATIONAL @ x + 0.1 * x**3

    x0 = np.array([1e-3, 0.0])
    rec = simulate_smooth_nagd(field, x0, np.zeros(2), _grid(60.0))
    sup = float(np.max(np.linalg.norm(rec.q, axis=1)))
    escaped = sup > 10.0 * float(np.linalg.norm(x0))
    jac = finite_difference_jacobian(field, np.zeros(2))
    jac_err = float(np.max(np.abs(jac - ROTATIONAL)))
    # empirical observation only (not asserted): the measured growth rate
    # tracks the linearization prediction while amplitudes stay small
    fit = analysis.fit_rate(
        rec.times,
        np.linalg.norm(rec.q, axis=1),
        kind="exponential",
        window=(10.0, 35.0),
        detrend_log_power=-1.5,
    )
    _crit(
        13,
        escaped and jac_err <= 1e-8,
        f"sup|x| = {sup:.3e} vs escape level {10.0 * float(np.linalg.norm(x0)):.1e}; "
        f"Jacobian error {jac_err:.2e} (tol 1e-8); observed rate {fit.slope:.4f} "
        f"(linearized 0.3039, informational)",
    )
