"""Output checks that do not trust nagdyn.

Each check reads the artifacts one CLI operation wrote and compares them
with facts the benchmark designed into the inputs, with an independent
computation (scipy's ODE solver and Bessel functions, cmath), or with a
property the method must have.  None compares against a stored copy of
earlier output.  A check returns a list of problems; an empty list means
the operation's output is correct.
"""

from __future__ import annotations

import cmath
import functools
import json
import math

import numpy as np

POS, ZERO, NEG, CPLX = "PositiveReal", "Zero", "NegativeReal", "StrictlyComplex"
EPS = float(np.finfo(float).eps)


def region(lam: complex) -> str:
    """Region of an exactly known eigenvalue or grid point."""
    if lam.imag != 0.0:
        return CPLX
    if lam.real > 0.0:
        return POS
    return ZERO if lam.real == 0.0 else NEG


def growth_rate(lam: complex) -> float:
    """Envelope growth rate of the mode: |Im sqrt(lam)| in the unstable regions."""
    return abs(cmath.sqrt(lam).imag) if region(lam) in (NEG, CPLX) else 0.0


def expected_verdicts(designed: list[complex], defective: bool) -> tuple[str, str]:
    """Verdicts the paper's theorem gives for a designed spectrum.

    The accelerated flow is stable iff every eigenvalue lies in [0, inf);
    among unstable modes the fastest-growing one names the verdict.  The
    first-order flow follows the sign of the real parts.
    """
    unstable = [(growth_rate(l), region(l)) for l in designed if region(l) in (NEG, CPLX)]
    if unstable:
        nagd = "UnstableNegativeReal" if max(unstable)[1] == NEG else "UnstableComplex"
    elif defective:
        nagd = "IndeterminateJordan"
    elif any(region(l) == ZERO for l in designed):
        nagd = "StableToNullSpace"
    else:
        nagd = "StableConvergent"
    re = [l.real for l in designed]
    if all(r > 0.0 for r in re):
        first = "ExponentiallyStable"
    elif all(r >= 0.0 for r in re):
        first = "MarginallyStable"
    else:
        first = "Unstable"
    return nagd, first


def _close(value: float, want: float, tol: float) -> bool:
    return bool(abs(value - want) <= tol)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --------------------------------------------------------------------------
# classify


def check_classify(op, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    spec = op.spec
    g = spec["matrix"]
    n = g.shape[0]
    problems = []
    if spec["form"] == "game":
        # assemble G from the payoffs actually written: G[i, :] = 2 Q_i[i, :]
        payoffs = _load_json(spec["config"])["source"]["game"]["payoffs"]
        assembled = np.array([[2.0 * x for x in payoffs[i][i]] for i in range(n)])
        if not np.array_equal(assembled, g):
            problems.append("payoffs do not assemble to the designed G")
    report = _load_json(op.artifacts[0])
    designed = list(spec["designed"])
    reported = [complex(e["re"], e["im"]) for e in report["eigenvalues"]]
    if len(reported) != n:
        return problems + [f"{len(reported)} eigenvalues reported for n={n}"]

    norm = max(1.0, float(np.linalg.norm(g, 2)))
    if spec["defective"]:
        # exact 2x2 Jordan input; the double root is well inside this
        tol = 1e-6 * norm
    else:
        # Bauer-Fike: a backward-stable solver moves each eigenvalue by at
        # most cond(P) times a small multiple of n eps ||G||
        tol = 1e3 * n * EPS * spec["cond_P"] * norm
    free = list(range(n))
    for lam in designed:
        j = min(free, key=lambda k: abs(reported[k] - lam))
        free.remove(j)
        got = reported[j]
        if abs(got - lam) > tol:
            problems.append(f"eigenvalue {lam:.6g} reported as {got:.6g} (tol {tol:.2g})")
            continue
        if report["classes"][j] != region(lam):
            problems.append(f"eigenvalue {lam:.6g} classed {report['classes'][j]}, want {region(lam)}")
        rate_tol = 1e-12 + tol / math.sqrt(max(abs(lam), tol))
        if not _close(report["rates"][j], growth_rate(lam), rate_tol):
            problems.append(f"eigenvalue {lam:.6g} rate {report['rates'][j]!r}, want {growth_rate(lam)!r}")

    nagd, first = expected_verdicts(designed, spec["defective"])
    if report["nagd_verdict"] != nagd:
        problems.append(f"accelerated verdict {report['nagd_verdict']}, want {nagd}")
    if report["first_order_verdict"] != first:
        problems.append(f"first-order verdict {report['first_order_verdict']}, want {first}")
    if report["is_diagonalizable"] != (not spec["defective"]):
        problems.append(f"is_diagonalizable={report['is_diagonalizable']} for a defective={spec['defective']} input")
    dominant = max(growth_rate(l) for l in designed)
    if not _close(report["dominant_growth_rate"], dominant, 1e-12 + math.sqrt(tol)):
        problems.append(f"dominant growth rate {report['dominant_growth_rate']!r}, want {dominant!r}")
    if not _close(report["first_order_rate"], min(l.real for l in designed), tol):
        problems.append("first-order rate is not min Re(lambda)")
    for line in (f"accelerated flow : {nagd}", f"first-order flow : {first}"):
        if line not in stdout:
            problems.append(f"stdout lacks {line!r}")
    return problems


# --------------------------------------------------------------------------
# simulate and reproduce


def _reference_trajectory(g, b, q0, v0, r, t0, times):
    """x'' + (r/t) x' + G x + b = 0 by scipy's DOP853 at tight tolerance."""
    from scipy.integrate import solve_ivp

    n = g.shape[0]

    def f(t, s):
        return np.concatenate([s[n:], -(r / t) * s[n:] - g @ s[:n] - b])

    sol = solve_ivp(f, (t0, float(times[-1])), np.concatenate([q0, v0]), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:n].T, sol.y[n:].T


# RK4 at dt = 0.01 stays within about 6e-7 of DOP853 (relative, on the
# simulate inputs of seeds 1-3); the bound leaves a factor of 15 for the
# phase error other seeds may accumulate.
TRAJECTORY_RTOL = 1e-5


def _check_trajectory(csv_path, json_path, spec, nagd_want) -> tuple[list[str], dict, dict]:
    g = np.asarray(spec["matrix"], dtype=float)
    n = g.shape[0]
    integ = spec["integrator"]
    t0, dt, stride = integ["t0"], integ.get("dt", 0.01), integ.get("record_stride", 1)
    n_steps = int(round((integ["t_end"] - t0) / dt))
    problems = []
    header, data = _load_csv(csv_path)
    summary = _load_json(json_path)
    cols = {name: data[:, k] for k, name in enumerate(header)}
    rows = n_steps // stride + 1
    if data.shape[0] != rows:
        return [f"{data.shape[0]} rows, want n_steps // stride + 1 = {rows}"], cols, summary
    want_head = ["t"] + [f"q_{i + 1}" for i in range(n)] + [f"v_{i + 1}" for i in range(n)] + ["norm_q"]
    if header[: len(want_head)] != want_head:
        return [f"header {header[:len(want_head)]} is not {want_head}"], cols, summary
    t = cols["t"]
    q = data[:, 1 : n + 1]
    v = data[:, n + 1 : 2 * n + 1]
    if not np.allclose(t, t0 + np.arange(rows) * stride * dt, rtol=1e-13, atol=0.0):
        problems.append("sample times are not t0 + k * stride * dt")
    if not np.allclose(cols["norm_q"], np.linalg.norm(q, axis=1), rtol=1e-13, atol=0.0):
        problems.append("norm_q is not ||q||")

    # compare with an independent integration on at most ~400 rows
    pick = np.unique(np.linspace(0, rows - 1, min(rows, 400)).astype(int))
    q_ref, v_ref = _reference_trajectory(
        g, np.zeros(n), np.asarray(spec["q0"], float), np.asarray(spec["v0"], float), 3.0, t0, t[pick]
    )
    scale = np.linalg.norm(q_ref, axis=1) + np.linalg.norm(v_ref, axis=1)
    err = (np.linalg.norm(q[pick] - q_ref, axis=1) + np.linalg.norm(v[pick] - v_ref, axis=1)) / scale
    if not float(err.max()) <= TRAJECTORY_RTOL:
        problems.append(f"trajectory differs from DOP853 by {float(err.max()):.3g} relative")

    if summary.get("rows") != rows or summary.get("saturated") is not False:
        problems.append(f"summary rows={summary.get('rows')} saturated={summary.get('saturated')}")
    if summary["spectrum"]["nagd_verdict"] != nagd_want:
        problems.append(f"summary verdict {summary['spectrum']['nagd_verdict']}, want {nagd_want}")
    return problems, cols, summary


def check_simulate(op, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    spec = op.spec
    g = np.asarray(spec["matrix"], dtype=float)
    problems, cols, summary = _check_trajectory(op.artifacts[0], op.artifacts[1], spec, spec["verdict"])
    if problems:
        return problems
    n = g.shape[0]
    t = cols["t"]
    q = np.stack([cols[f"q_{i + 1}"] for i in range(n)], axis=1)
    v = np.stack([cols[f"v_{i + 1}"] for i in range(n)], axis=1)
    diags = spec["diagnostics"]

    if "lyapunov" in diags:
        # V = (t^2/2) q^T G q + (1/2) ||t v + 2 q||^2, Vdot = -t q^T G q
        qgq = np.einsum("ij,ij->i", q @ g.T, q)
        shifted = t[:, None] * v + 2.0 * q
        V = 0.5 * t**2 * qgq + 0.5 * np.einsum("ij,ij->i", shifted, shifted)
        if "V" not in cols or not np.allclose(cols["V"], V, rtol=1e-9, atol=0.0):
            problems.append("V column does not match the Lyapunov function")
        elif not np.allclose(cols["Vdot"], -t * qgq, rtol=1e-9, atol=1e-300):
            problems.append("Vdot column is not -t q^T G q")
        elif float(np.max(np.diff(cols["V"]) / cols["V"][:-1])) > 1e-8:
            problems.append("V increases along a trajectory of a PSD game")

    beta = spec["beta"]
    if "rates" in diags:
        fit = summary.get("rate_fit")
        if fit is None:
            problems.append("rates requested but no rate_fit in the summary")
        elif beta > 0.0:
            if fit["kind"] != "exponential" or not _close(fit["slope"], beta, 0.1 * beta):
                problems.append(f"growth rate {fit['slope']!r}, want Im sqrt(lambda) = {beta!r} within 10%")
        elif fit["kind"] != "algebraic" or not -1.7 <= fit["slope"] <= -1.3:
            problems.append(f"envelope slope {fit['slope']!r} outside [-1.7, -1.3]")

    if "chetaev" in diags and beta > 0.0:
        che = summary.get("chetaev_complex")
        if che is None or not _close(che["beta_measured"], beta, 0.1 * beta):
            problems.append(f"chetaev beta {che and che['beta_measured']!r}, want {beta!r} within 10%")
        # rho = |w^* q| for a left eigenvector w of the fastest mode: its
        # ratio to |u^* q| for any other scaling u of w must be constant
        vals, left = np.linalg.eig(g.T)
        u = left[:, int(np.argmax(np.abs(vals.imag)))]
        ratio = cols["rho"] / np.abs(q @ u)
        if float(np.ptp(ratio)) > 1e-8 * float(np.median(ratio)):
            problems.append("rho is not the modulus of a left-eigenvector projection")
    if "energy" in diags and beta > 0.0:
        resid = summary.get("energy_identity_residual")
        if resid is None or not resid <= 1e-4:
            problems.append(f"flux identity residual {resid!r} above 1e-4")
    return problems


FIG2_MATRIX = np.array([[6.0, 1.5], [-1.5, 6.0]])


def check_reproduce_fig2(op, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    csv_path, json_path, fo_path, summary_path = op.artifacts
    spec = {
        "matrix": FIG2_MATRIX,
        "q0": [1.0, 0.0],
        "v0": [0.0, 0.0],
        "integrator": {"t0": 1.0, "t_end": 60.0, "dt": 0.01, "record_stride": 1},
        "diagnostics": ["chetaev", "energy", "rates"],
    }
    problems, _, _ = _check_trajectory(csv_path, json_path, spec, "UnstableComplex")
    summary = _load_json(summary_path)
    if summary.get("pass") is not True:
        problems.append("fig2 summary does not pass its own checks")
    beta = abs(cmath.sqrt(complex(6.0, 1.5)).imag)
    if not _close(summary["checks"]["nagd_rate"], beta, 0.1 * beta):
        problems.append(f"fig2 rate {summary['checks']['nagd_rate']!r}, want {beta!r} within 10%")
    # x' = -G x with G = 6 I + 1.5 J rotates at constant speed while the
    # norm decays exactly like exp(-6 (t - 1))
    _, fo = _load_csv(fo_path)
    want = np.exp(-6.0 * (fo[:, 0] - 1.0))
    if fo.shape[0] != 2501 or not np.allclose(fo[:, 1], want, rtol=1e-6, atol=0.0):
        problems.append("first-order norms do not follow exp(-6 (t - 1))")
    return problems


# --------------------------------------------------------------------------
# sweep


def _axis_values(axis) -> list[float]:
    a0, a1, count = axis
    step = (a1 - a0) / (count - 1) if count > 1 else 0.0
    return [a0 + k * step for k in range(count)]


def _measured_ok(cls: str, measured: float, predicted: float) -> bool:
    if cls == POS:
        return abs(measured + 1.5) <= 0.05
    if cls == ZERO:
        return abs(measured) <= 0.01
    return abs(measured - predicted) <= 0.01 * predicted + 0.005


def check_sweep(op, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    spec = op.spec
    with open(op.artifacts[0], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "re,im,predicted_rate,measured_rate,class":
        return [f"header {lines[0]!r}"]
    points = [(a, b) for a in _axis_values(spec["re_axis"]) for b in _axis_values(spec["im_axis"])]
    if len(lines) - 1 != len(points):
        return [f"{len(lines) - 1} rows, want {len(points)}"]
    problems = []
    for line, (a, b) in zip(lines[1:], points):
        re_s, im_s, pred_s, meas_s, cls = line.split(",")
        lam = complex(a, b)
        if float(re_s) != a or float(im_s) != b:
            problems.append(f"row {line!r} is not grid point {lam}")
        elif cls != region(lam):
            problems.append(f"{lam} classed {cls}, want {region(lam)}")
        else:
            pred, meas = float(pred_s), float(meas_s)
            want = {POS: -1.5, ZERO: 0.0}.get(cls, abs(cmath.sqrt(lam).imag))
            if not _close(pred, want, 1e-12 * max(1.0, abs(want))):
                problems.append(f"{lam} predicted {pred!r}, want {want!r}")
            elif spec["measure"] and not _measured_ok(cls, meas, pred):
                problems.append(f"{lam} ({cls}) measured {meas!r} against predicted {pred!r}")
            elif not spec["measure"] and not math.isnan(meas):
                problems.append(f"{lam} has a measured rate without --measure")
        if len(problems) >= 5:
            break
    return problems


# --------------------------------------------------------------------------
# check


@functools.lru_cache(maxsize=None)
def bessel_agreement() -> float:
    """Worst relative gap between nagdyn's scalar Bessel functions and scipy's.

    The arguments are the ones the invariant checks evaluate: the Wronskian
    sample of the oscillatory pair on and off the real axis, the imaginary
    axis of the connection formula, and the real samples of I/K.
    """
    import scipy.special as sp

    from nagdyn import special

    zs = [complex(z) for z in np.linspace(0.5, 40.0, 24)]
    zs += [r * complex(math.cos(a), math.sin(a)) for r in (1.0, 8.0, 19.0, 23.0) for a in (0.7, -1.2)]
    zs += [complex(0.0, x) for x in np.linspace(0.5, 20.0, 12)]
    xs = [float(x) for x in np.linspace(0.5, 25.0, 20)] + [float(x) for x in np.linspace(0.5, 20.0, 12)]
    pairs = [
        (special.bessel_j0, lambda z: sp.jv(0, z), zs),
        (special.bessel_j1, lambda z: sp.jv(1, z), zs),
        (special.bessel_y0, lambda z: sp.yv(0, z), zs),
        (special.bessel_y1, lambda z: sp.yv(1, z), zs),
        (special.bessel_i0, lambda x: sp.iv(0, x), xs),
        (special.bessel_i1, lambda x: sp.iv(1, x), xs),
        (special.bessel_k0, lambda x: sp.kv(0, x), xs),
        (special.bessel_k1, lambda x: sp.kv(1, x), xs),
    ]
    return max(abs(f(z) - ref(z)) / abs(ref(z)) for f, ref, args in pairs for z in args)


def check_invariants(op, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    report = _load_json(op.artifacts[0])
    problems = []
    if report["failures"] or not all(c["passed"] for c in report["checks"]):
        problems.append(f"failed checks {report['failures']}")
    if report["dt"] != op.spec["dt"]:
        problems.append(f"report dt {report['dt']!r}, want {op.spec['dt']!r}")
    if f"all {len(report['checks'])} checks passed" not in stdout:
        problems.append("stdout does not report every check passed")
    order = [c["measured"] for c in report["checks"] if c["name"] == "rk4_order_factor"]
    if len(order) != 1 or not 15.5 <= order[0] <= 16.5:
        problems.append(f"rk4 order factor {order} not near 16")
    worst = bessel_agreement()
    if not worst <= 1e-10:
        problems.append(f"scalar Bessel values differ from scipy by {worst:.3g} relative")
    return problems
