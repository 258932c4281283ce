"""Seeded inputs and operation lists for the four benchmark workloads.

Every workload turns a seed into nagdyn inputs (config files, grid specs,
step sizes) and a fixed list of CLI operations.  The sizes of the inputs do
not depend on the seed, only their values do, so every seed asks nagdyn for
about the same amount of work.  Each operation carries the designed facts
its output check needs; the checks themselves live in ``checks.py``.
"""

from __future__ import annotations

import cmath
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

@dataclass
class Op:
    """One CLI command, the files it must write, and how to check them."""

    label: str
    argv: list[str]
    artifacts: list[str]
    check: object
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    build: object  # (rng, work_dir, quick) -> list[Op]
    warmup: object  # (work_dir) -> argv of one small command on the same code path
    setup_repeats: int = 9  # setup_s is the median over this many set-ups


def _write_json(path: str, payload: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _conditioned_basis(rng, n: int) -> np.ndarray:
    """Random real basis P with singular values in [1, 3], so cond(P) <= 3."""
    s = np.sort(rng.uniform(1.0, 3.0, n))
    return _orthogonal(rng, n) @ np.diag(s) @ _orthogonal(rng, n).T


def _stratified(rng, m: int, lo: float, hi: float) -> list[float]:
    """m distinct values in [lo, hi], one per equal cell, kept off cell edges."""
    width = (hi - lo) / max(m, 1)
    return [lo + width * (k + rng.uniform(0.1, 0.9)) for k in range(m)]


# --------------------------------------------------------------------------
# classify


def _design_spectrum(rng, n: int, kind: str) -> list[tuple]:
    """Eigen-blocks ('real', lam) and ('pair', a, b) filling dimension n."""
    blocks: list[tuple] = []
    if kind == "nullspace":
        blocks.append(("real", 0.0))
    elif kind == "negative":
        blocks += [("real", v) for v in _stratified(rng, 1 + (n >= 6), -3.0, -0.25)]
    elif kind == "complex":
        pairs = n // 2
        blocks += [("pair", a, rng.uniform(0.5, 2.0)) for a in _stratified(rng, pairs, 0.25, 4.0)]
    elif kind == "mixed":
        # all four regions, plus a purely imaginary pair once there is room
        blocks.append(("real", 0.0))
        blocks.append(("real", rng.uniform(-3.0, -0.25)))
        blocks.append(("pair", rng.uniform(0.25, 4.0), rng.uniform(0.5, 2.0)))
        if n >= 7:
            blocks.append(("pair", 0.0, rng.uniform(0.5, 2.0)))
    used = sum(1 if b[0] == "real" else 2 for b in blocks)
    blocks += [("real", v) for v in _stratified(rng, n - used, 0.25, 4.0)]
    return blocks


def _block_matrix(blocks: list[tuple]) -> np.ndarray:
    n = sum(1 if b[0] == "real" else 2 for b in blocks)
    d = np.zeros((n, n))
    i = 0
    for b in blocks:
        if b[0] == "real":
            d[i, i] = b[1]
            i += 1
        else:
            _, a, im = b
            d[i : i + 2, i : i + 2] = [[a, im], [-im, a]]
            i += 2
    return d


def _eigenvalues(blocks: list[tuple]) -> list[complex]:
    vals: list[complex] = []
    for b in blocks:
        if b[0] == "real":
            vals.append(complex(b[1]))
        elif b[0] == "jordan":
            vals += [complex(b[1])] * 2
        else:
            vals += [complex(b[1], b[2]), complex(b[1], -b[2])]
    return vals


def _payoffs_for(rng, g: np.ndarray) -> list[list[list[float]]]:
    """Symmetric per-player payoffs Q_i whose own rows give G[i, :] = 2 Q_i[i, :]."""
    n = g.shape[0]
    out = []
    for i in range(n):
        a = rng.standard_normal((n, n)) * 0.5
        q = 0.5 * (a + a.T)
        q[i, :] = 0.5 * g[i, :]
        q[:, i] = 0.5 * g[i, :]
        out.append(q.tolist())
    return out


# Sizes are fixed; the seed only picks values.  The five kinds cycle over
# the sizes so each kind meets small and large matrices.
CLASSIFY_MATRIX_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64)
CLASSIFY_GAME_SIZES = (2, 3, 4, 6, 8, 12, 16, 24)
CLASSIFY_KINDS = ("stable", "nullspace", "negative", "complex", "mixed")
# Defective inputs are 2x2 Jordan blocks conjugated by a signed permutation,
# so G is exact; (form, sign of the double eigenvalue).
CLASSIFY_DEFECTIVE = (("matrix", 1.0), ("matrix", -1.0), ("game", 1.0), ("game", -1.0))

QUICK_CLASSIFY_MATRIX_SIZES = (2, 5, 8)
QUICK_CLASSIFY_GAME_SIZES = (3, 6)
QUICK_CLASSIFY_DEFECTIVE = (("matrix", 1.0), ("game", -1.0))


def _classify_op(work_dir: str, label: str, source: dict, n: int, rng, spec: dict) -> Op:
    out_dir = os.path.join(work_dir, "out")
    cfg = {
        "label": label,
        "source": source,
        "initial": {"q0": rng.standard_normal(n).tolist()},
    }
    path = _write_json(os.path.join(work_dir, "inputs", f"{label}.json"), cfg)
    spec = dict(spec, config=path)
    return Op(
        label=label,
        argv=["classify", "--config", path, "--out", out_dir],
        artifacts=[os.path.join(out_dir, f"{label}_classify.json")],
        check=checks.check_classify,
        spec=spec,
    )


def _source(rng, g: np.ndarray, form: str) -> dict:
    n = g.shape[0]
    if form == "matrix":
        return {"matrix": g.tolist(), "offset": rng.standard_normal(n).tolist()}
    return {
        "game": {
            "payoffs": _payoffs_for(rng, g),
            "offsets": rng.standard_normal((n, n)).tolist(),
        }
    }


def build_classify(rng, work_dir: str, quick: bool) -> list[Op]:
    mats = QUICK_CLASSIFY_MATRIX_SIZES if quick else CLASSIFY_MATRIX_SIZES
    games = QUICK_CLASSIFY_GAME_SIZES if quick else CLASSIFY_GAME_SIZES
    defective = QUICK_CLASSIFY_DEFECTIVE if quick else CLASSIFY_DEFECTIVE
    ops = []
    plan = [("matrix", n) for n in mats] + [("game", n) for n in games]
    for k, (form, n) in enumerate(plan):
        kind = CLASSIFY_KINDS[k % len(CLASSIFY_KINDS)]
        blocks = _design_spectrum(rng, n, kind)
        p = _conditioned_basis(rng, n)
        g = p @ _block_matrix(blocks) @ np.linalg.inv(p)
        spec = {
            "designed": _eigenvalues(blocks),
            "cond_P": float(np.linalg.cond(p)),
            "defective": False,
            "matrix": g,
            "form": form,
        }
        label = f"cls{k:02d}_{form}_n{n}_{kind}"
        ops.append(_classify_op(work_dir, label, _source(rng, g, form), n, rng, spec))
    for k, (form, sign) in enumerate(defective, start=len(plan)):
        lam = sign * rng.uniform(0.25, 3.0)
        perm = np.zeros((2, 2))
        perm[np.arange(2), rng.permutation(2)] = rng.choice([-1.0, 1.0], 2)
        g = perm @ np.array([[lam, 1.0], [0.0, lam]]) @ perm.T
        spec = {
            "designed": _eigenvalues([("jordan", lam)]),
            "cond_P": 1.0,
            "defective": True,
            "matrix": g,
            "form": form,
        }
        label = f"cls{k:02d}_{form}_n2_jordan"
        ops.append(_classify_op(work_dir, label, _source(rng, g, form), 2, rng, spec))
    return ops


def warmup_classify(work_dir: str) -> list[str]:
    path = _write_json(
        os.path.join(work_dir, "inputs", "warmup.json"),
        {"source": {"matrix": [[2.0, 1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, 0.25, 1.0]]}, "initial": {"q0": [1.0, 0.0, 0.0]}},
    )
    return ["classify", "--config", path, "--out", os.path.join(work_dir, "warmup")]


# --------------------------------------------------------------------------
# simulate


def _simulate_op(work_dir, label, g, q0, v0, t_end, stride, diagnostics, form, verdict, beta, cli_stride=None) -> Op:
    """A simulate command; ``verdict`` and ``beta`` (the fastest growth rate
    Im sqrt(lambda), 0 for stable games) are known from the design."""
    n = g.shape[0]
    out_dir = os.path.join(work_dir, "out")
    if form == "potential":
        # every player shares the potential x^T S x with S = G / 2
        source = {"game": {"payoffs": [(0.5 * g).tolist()] * n}}
    else:
        source = {"matrix": g.tolist()}
    integ = {"t0": 1.0, "t_end": t_end, "dt": 0.01, "record_stride": stride}
    cfg = {
        "label": label,
        "source": source,
        "initial": {"q0": q0.tolist(), "v0": v0.tolist()},
        "integrator": integ,
        "diagnostics": list(diagnostics),
    }
    path = _write_json(os.path.join(work_dir, "inputs", f"{label}.json"), cfg)
    argv = ["simulate", "--config", path, "--out", out_dir]
    if cli_stride is not None:
        argv += ["--stride", str(cli_stride)]
        integ = dict(integ, record_stride=cli_stride)
    return Op(
        label=label,
        argv=argv,
        artifacts=[os.path.join(out_dir, f"{label}.csv"), os.path.join(out_dir, f"{label}.json")],
        check=checks.check_simulate,
        spec={
            "matrix": g,
            "q0": q0,
            "v0": v0,
            "integrator": integ,
            "diagnostics": list(diagnostics),
            "verdict": verdict,
            "beta": beta,
        },
    )


def _spd(rng, n: int, lo: float, hi: float) -> np.ndarray:
    q = _orthogonal(rng, n)
    g = q @ np.diag(_stratified(rng, n, lo, hi)) @ q.T
    return 0.5 * (g + g.T)


def _unit(rng, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def build_simulate(rng, work_dir: str, quick: bool) -> list[Op]:
    ops = []
    # 4-player potential game, every RK4 step written: RK4 and the CSV
    # writer share the time.
    g4 = _spd(rng, 4, 0.4, 1.5)
    ops.append(
        _simulate_op(
            work_dir, "potential4", g4, 0.6 * _unit(rng, 4), 0.05 * rng.standard_normal(4),
            61.0 if quick else 501.0, 1, ("lyapunov", "rates"), "potential", "StableConvergent", 0.0,
        )
    )
    # rotational game (the fig2 family): growth under momentum, stride
    # overridden on the command line
    a, b = rng.uniform(5.0, 7.0), rng.uniform(1.0, 2.0)
    grot = np.array([[a, b], [-b, a]])
    ops.append(
        _simulate_op(
            work_dir, "rotational", grot, _unit(rng, 2), np.zeros(2),
            60.0, 1, ("chetaev", "energy", "rates"), "matrix", "UnstableComplex",
            abs(cmath.sqrt(complex(a, b)).imag), cli_stride=2,
        )
    )
    # a large potential game at a large stride: RK4 on a 2n-dim state
    # dominates, the writer does little
    n_big = 8 if quick else 40
    gbig = _spd(rng, n_big, 0.3, 3.0)
    ops.append(
        _simulate_op(
            work_dir, f"potential{n_big}", gbig, 0.5 * _unit(rng, n_big), np.zeros(n_big),
            21.0 if quick else 201.0, 50, ("lyapunov",), "potential", "StableConvergent", 0.0,
        )
    )
    # the canned fig2 study: the only CLI path into the first-order integrator
    out_dir = os.path.join(work_dir, "out", "fig2")
    ops.append(
        Op(
            label="reproduce_fig2",
            argv=["reproduce", "--figure", "fig2", "--out", out_dir],
            artifacts=[
                os.path.join(out_dir, name)
                for name in ("fig2_rotational.csv", "fig2_rotational.json", "fig2_rotational_first_order.csv", "fig2_summary.json")
            ],
            check=checks.check_reproduce_fig2,
        )
    )
    return ops


def warmup_simulate(work_dir: str) -> list[str]:
    path = _write_json(
        os.path.join(work_dir, "inputs", "warmup.json"),
        {
            "source": {"matrix": [[0.6, 0.1], [0.1, 0.9]]},
            "initial": {"q0": [0.5, 0.3]},
            "integrator": {"t_end": 11.0},
            "diagnostics": ["lyapunov", "chetaev", "energy", "rates"],
        },
    )
    return ["simulate", "--config", path, "--out", os.path.join(work_dir, "warmup")]


# --------------------------------------------------------------------------
# sweep


def _axis(start_cells: int, count: int, step: float) -> tuple[float, float, int]:
    """Axis from -start_cells*step with `count` points; dyadic steps keep
    every grid value exact, so 0 is hit exactly when start_cells < count."""
    a0 = -start_cells * step
    return a0, a0 + (count - 1) * step, count


def _sweep_op(work_dir: str, label: str, re_axis, im_axis, measure: bool) -> Op:
    out_dir = os.path.join(work_dir, "out", label)
    grid = "{!r}:{!r}:{},{!r}:{!r}:{}".format(*re_axis, *im_axis)
    # "--grid=..." keeps a leading minus from being read as an option
    argv = ["sweep", f"--grid={grid}", "--out", out_dir] + (["--measure"] if measure else [])
    return Op(
        label=label,
        argv=argv,
        artifacts=[os.path.join(out_dir, "sweep.csv")],
        check=checks.check_sweep,
        spec={"re_axis": re_axis, "im_axis": im_axis, "measure": measure},
    )


# Measured grids as (real cells left of zero, real count, imaginary cells
# below zero, imaginary count).  Each has a zero point and points in all
# four regions.  The first is symmetric under conjugation, the others lie
# above or below the real axis.  Equal sizes give the commands equal cost,
# so the median operation is one of them, not a point between two costs.
SWEEP_MEASURED = ((1, 3, 1, 3), (1, 3, 0, 3), (1, 3, 2, 3))
QUICK_SWEEP_MEASURED = ((1, 3, 1, 3),)
# Classify-only grid sizes: 2^k + 1 points per axis over dyadic ranges.
SWEEP_LARGE = (513, 257)
QUICK_SWEEP_LARGE = (33, 17)


def build_sweep(rng, work_dir: str, quick: bool) -> list[Op]:
    ops = []
    for k, (re_left, n_re, im_left, n_im) in enumerate(QUICK_SWEEP_MEASURED if quick else SWEEP_MEASURED):
        re_step = int(rng.integers(2, 7)) / 4.0  # 0.5 .. 1.5
        im_step = int(rng.integers(2, 7)) / 4.0  # 0.5 .. 1.5
        ops.append(
            _sweep_op(
                work_dir, f"measure{k}", _axis(re_left, n_re, re_step), _axis(im_left, n_im, im_step), True
            )
        )
    n_re, n_im = QUICK_SWEEP_LARGE if quick else SWEEP_LARGE
    # real axis spans 8 with zero at a seeded point; the imaginary axis
    # spans 8 off-centre, so only part of the grid has its conjugate in it
    re_left = int(rng.integers((n_re - 1) * 3 // 16, (n_re - 1) // 2 + 1))
    im_left = int(rng.integers((n_im - 1) // 4, (n_im - 1) * 3 // 4 + 1))
    ops.append(
        _sweep_op(
            work_dir, "classify_large", _axis(re_left, n_re, 8.0 / (n_re - 1)), _axis(im_left, n_im, 8.0 / (n_im - 1)), False
        )
    )
    return ops


def warmup_sweep(work_dir: str) -> list[str]:
    return ["sweep", "--grid=-1.0:1.0:2,0.0:1.0:2", "--measure", "--out", os.path.join(work_dir, "warmup")]


# --------------------------------------------------------------------------
# check


# Step sizes at which every invariant check passes (they pass from 0.005 to
# 0.0125; from 0.016 the damping power law fails).  The seed jitters each
# by up to 1%, which keeps the work per seed the same within 1%.
CHECK_STEPS = (0.01,)
QUICK_CHECK_STEPS = (0.012,)


def build_check(rng, work_dir: str, quick: bool) -> list[Op]:
    ops = []
    for k, base in enumerate(QUICK_CHECK_STEPS if quick else CHECK_STEPS):
        dt = round(base * (1.0 + rng.uniform(-0.01, 0.01)), 7)
        out_dir = os.path.join(work_dir, "out", f"check{k}")
        ops.append(
            Op(
                label=f"check{k}",
                argv=["check", "--dt", repr(dt), "--out", out_dir],
                artifacts=[os.path.join(out_dir, "check_report.json")],
                check=checks.check_invariants,
                spec={"dt": dt},
            )
        )
    return ops


def warmup_check(work_dir: str) -> list[str]:
    return ["check", "--dt", "0.0125"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify", 0, build_classify, warmup_classify),
        Workload("simulate", 1, build_simulate, warmup_simulate),
        Workload("sweep", 2, build_sweep, warmup_sweep),
        Workload("check", 3, build_check, warmup_check, setup_repeats=3),
    )
}
