"""Experiment configurations, deterministic writers, and canned studies.

A configuration names a linear system (directly or through a quadratic
game), initial data, integrator grid, and the diagnostics to attach.
The JSON grammar is documented in the README; parsing errors always name
the offending key.  Output writers are deterministic: floats are
rendered with 17 significant digits, files are written atomically, and
re-running a configuration reproduces byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from . import _csvformat, analysis, dynamics, game, special, spectral
from ._csvformat import CodedColumn
from .errors import (
    ConfigError,
    GridTooLarge,
    InsufficientPoints,
    NonPositiveSeries,
    NotApplicable,
    OutputError,
    TrivialNullspace,
)

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "CodedColumn",
    "write_csv",
    "write_json",
    "run_experiment",
    "FIGURES",
    "reproduce_figure",
    "parse_grid",
    "SweepResult",
    "run_sweep",
    "CheckResult",
    "run_invariant_checks",
    "GRID_POINT_CAP",
]

#: Safety cap on the number of sweep grid points.
GRID_POINT_CAP = 1_000_000


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    label: str
    system: game.PseudoGradientSystem
    q0: np.ndarray
    v0: np.ndarray
    integrator: dynamics.IntegratorConfig
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        q = np.asarray(self.q0, dtype=float)
        v = np.asarray(self.v0, dtype=float)
        n = self.system.n
        if q.shape != (n,) or v.shape != (n,):
            raise ConfigError(f"initial: q0 and v0 must have length {n}")
        q.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "q0", q)
        object.__setattr__(self, "v0", v)


def _cfg_array(raw, key: str, n: int | None = None) -> np.ndarray:
    """``raw`` as finite floats: a vector of length ``n``, or a square matrix when ``n`` is None.

    A JSON boolean is refused, as by :func:`_cfg_number`.
    """
    kind = "square matrix" if n is None else f"vector of length {n}"
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a numeric {kind}") from exc
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    square = n is None and arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    if not (square or arr.shape == (n,)):
        raise ConfigError(f"{key}: expected a {kind}")
    # numpy reads a boolean as 0.0 or 1.0, so only an array holding one of those is scanned for it
    cells = raw if n is not None else itertools.chain.from_iterable(raw)
    if ((arr == 0.0) | (arr == 1.0)).any() and bool in map(type, cells):
        raise ConfigError(f"{key}: expected numbers, not booleans")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key}: entries must be finite")
    return arr


#: The integrator keys, each with the type of its field's default.
_INTEGRATOR_TYPES = {f.name: type(f.default) for f in fields(dynamics.IntegratorConfig)}


def _cfg_number(value, key: str, kind: type):
    """``value`` as a ``kind``: an int, or a float read from an int or a float; never a bool."""
    if not isinstance(value, (int, kind)) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected " + ("an integer" if kind is int else "a number"))
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _refuse_unknown(obj: dict, key: str, known) -> None:
    """Raise :class:`ConfigError`, naming ``key``, when ``obj`` holds a key outside ``known``."""
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"{key}: unknown keys {sorted(unknown)}")


def _utf8(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: not when it holds a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_config(raw: dict, label: str = "experiment") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON-shaped dictionary."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _refuse_unknown(raw, "top level", ("label", "source", "initial", "integrator", "diagnostics"))
    label = raw.get("label", label)
    separators = ("/", os.sep, os.altsep, "\0")
    if (
        not isinstance(label, str)
        or label in ("", ".", "..")
        or any(c and c in label for c in separators)
        or not _utf8(label)
    ):
        raise ConfigError(f"label: expected a UTF-8 file-name stem without a path separator or NUL, got {label!r}")

    source = raw.get("source")
    if not isinstance(source, dict):
        raise ConfigError("source: required object with 'matrix' or 'game'")
    if ("matrix" in source) == ("game" in source):
        raise ConfigError("source: provide exactly one of 'matrix' or 'game'")
    _refuse_unknown(source, "source", ("matrix", "offset") if "matrix" in source else ("game",))
    if "matrix" in source:
        g = _cfg_array(source["matrix"], "source.matrix")
        n = g.shape[0]
        b = (
            _cfg_array(source["offset"], "source.offset", n)
            if "offset" in source
            else np.zeros(n)
        )
        try:
            system = game.PseudoGradientSystem(matrix=g, offset=b)
        except ValueError as exc:
            raise ConfigError(f"source: {exc}") from exc
    else:
        spec_g = source["game"]
        if not isinstance(spec_g, dict) or "payoffs" not in spec_g:
            raise ConfigError("source.game: expected an object with 'payoffs'")
        _refuse_unknown(spec_g, "source.game", ("payoffs", "offsets"))
        payoffs = spec_g["payoffs"]
        if not isinstance(payoffs, list) or not payoffs:
            raise ConfigError("source.game.payoffs: expected a nonempty list of matrices")
        n = len(payoffs)
        qs = [_cfg_array(p, f"source.game.payoffs[{i}]") for i, p in enumerate(payoffs)]
        offs = spec_g.get("offsets")
        if offs is None:
            ds = [np.zeros(n) for _ in range(n)]
        else:
            if not isinstance(offs, list) or len(offs) != n:
                raise ConfigError("source.game.offsets: expected one vector per player")
            ds = [_cfg_array(d, f"source.game.offsets[{i}]", n) for i, d in enumerate(offs)]
        try:
            system = game.pseudo_gradient(game.QuadraticGame(payoffs=tuple(qs), offsets=tuple(ds)))
        except ValueError as exc:
            raise ConfigError(f"source.game: {exc}") from exc
    n = system.n

    initial = raw.get("initial")
    if not isinstance(initial, dict) or "q0" not in initial:
        raise ConfigError("initial: required object with 'q0'")
    _refuse_unknown(initial, "initial", ("q0", "v0"))
    q0 = _cfg_array(initial["q0"], "initial.q0", n)
    v0 = _cfg_array(initial["v0"], "initial.v0", n) if "v0" in initial else np.zeros(n)

    integ_raw = raw.get("integrator", {})
    if not isinstance(integ_raw, dict):
        raise ConfigError("integrator: expected an object")
    _refuse_unknown(integ_raw, "integrator", _INTEGRATOR_TYPES)
    kwargs = {k: _cfg_number(v, f"integrator.{k}", _INTEGRATOR_TYPES[k]) for k, v in integ_raw.items()}
    try:
        integ = dynamics.IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc

    diags_raw = raw.get("diagnostics", [])
    if not isinstance(diags_raw, list):
        raise ConfigError("diagnostics: expected a list of names")
    names = tuple(dict.fromkeys(name for name, _, _ in _DIAGNOSTICS))
    for d in diags_raw:
        if d not in names:
            raise ConfigError(f"diagnostics: unknown entry {d!r}; choose from {names}")

    return ExperimentConfig(
        label=label,
        system=system,
        q0=q0,
        v0=v0,
        integrator=integ,
        diagnostics=tuple(diags_raw),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply") from exc
    base = os.path.splitext(os.path.basename(path))[0]
    return parse_config(raw, label=base)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "label": cfg.label,
        "source": {
            "matrix": cfg.system.matrix.tolist(),
            "offset": cfg.system.offset.tolist(),
        },
        "initial": {"q0": cfg.q0.tolist(), "v0": cfg.v0.tolist()},
        "integrator": asdict(cfg.integrator),
        "diagnostics": list(cfg.diagnostics),
    }


# --------------------------------------------------------------------------
# deterministic writers


def _atomic_write(path: str, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write the concatenated byte ``chunks`` to ``path`` through a temporary file.

    Any ``OSError`` (a missing or read-only directory, a path under a
    regular file, a full disk) becomes :class:`OutputError` naming the path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path: str, header: list[str], columns: list[np.ndarray | CodedColumn]) -> None:
    """Write the columns named by ``header`` as UTF-8 CSV.

    Every number cell holds exactly the bytes of ``"%.17g" % x``, 17
    significant digits.  The cells of a chunk of rows are formatted one
    column after another by array operations, in passes of at most 8192
    values (:mod:`nagdyn._csvformat`): for finite 1e-11 <= |x| < 1e16 the
    correctly rounded 17-digit significand comes from a long-double product
    whose rounding error is bounded, and a value that bound cannot settle
    (near a rounding tie or a decade boundary, outside that range, or every
    value where long double is no wider than double) is formatted by
    ``%.17g`` itself.  Rows are formatted and written in chunks, so memory
    does not grow with the row count; :func:`nagdyn._csvformat.csv_chunks`
    gives the chunk size.  The bytes written do not depend on it.

    A column is an array of numbers or a :class:`CodedColumn`: the same
    bytes as ``values[index]`` passed plainly, but each table entry is
    formatted once per call and each row only gathers its cell.  Either
    kind reaches the rows as a table of slots, each cell NUL-padded to the
    table's longest and followed by its separator: a plain column gets one
    table per chunk, as wide as its widest cell there.  A column
    that repeats values, such as a grid axis, a constant, a class name or a
    sweep point's rate, then costs a gather per row in place of a
    formatting.  A :class:`CodedColumn` whose table holds ``str`` is a text
    column, written as UTF-8, at any position.

    Raises ``TypeError`` when a plain column does not hold numbers, and
    ``ValueError`` when ``header`` does not name every column, when the
    columns differ in length, when a text cell contains NUL, or when the
    index of a coded column is not an integer array within its table.
    """
    _atomic_write(path, _csvformat.csv_chunks(header, columns))


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(path, [(text + "\n").encode("utf-8")])


def _fingerprint(system: game.PseudoGradientSystem) -> str:
    """The first 16 hex digits of the SHA-256 of G's entries and then b's, each ``"%.17g" % x``,
    joined by ``;`` within G and b and by ``|`` between them."""
    matrix = system.matrix.ravel()
    cells = _csvformat.cell_table(np.concatenate([matrix, system.offset]))
    text = cells.view("S24").ravel().tolist()  # a row is 24 bytes; bytes drop their NUL padding
    blob = b";".join(text[: matrix.size]) + b"|" + b";".join(text[matrix.size :])
    return hashlib.sha256(blob).hexdigest()[:16]


# --------------------------------------------------------------------------
# running one configuration


def _verdict_report(spectrum: spectral.Spectrum, verdict: spectral.StabilityVerdict) -> dict:
    return {
        "eigenvalues": [{"re": l.real, "im": l.imag} for l in spectrum.eigenvalues],
        "classes": [c.tag.value for c in verdict.per_eigenvalue],
        "rates": [c.rate for c in verdict.per_eigenvalue],
        "nagd_verdict": verdict.nagd.value,
        "first_order_verdict": verdict.first_order.value,
        "dominant_growth_rate": verdict.dominant_growth_rate,
        # Decay rate of dx/dt = -Gx: min Re(lam); negative means growth.
        "first_order_rate": float(min(l.real for l in spectrum.eigenvalues)),
        "bound_constant": verdict.bound_constant,
        "kappa_P": spectrum.kappa_P,
        "is_symmetric": spectrum.is_symmetric,
        "is_diagonalizable": spectrum.is_diagonalizable,
    }


def _strongest(spectrum: spectral.Spectrum, verdict: spectral.StabilityVerdict, tag: spectral.EigenvalueClass):
    """(class, left eigenvector) of the eigenvalue of class ``tag`` with the largest rate, or None."""
    found = [(c, w) for c, w in zip(verdict.per_eigenvalue, spectrum.left_vectors) if c.tag is tag]
    return max(found, key=lambda cw: cw[0].rate) if found else None


def _modal(cfg, spectrum, verdict, record):
    modes = []
    for cls, w in zip(verdict.per_eigenvalue, spectrum.left_vectors):
        y0 = complex(np.conj(w) @ cfg.q0)
        ydot0 = complex(np.conj(w) @ cfg.v0)
        modes.append(
            {
                "eigenvalue": {"re": cls.value.real, "im": cls.value.imag},
                "class": cls.tag.value,
                "rate": cls.rate,
                "y0": {"re": y0.real, "im": y0.imag},
                "ydot0": {"re": ydot0.real, "im": ydot0.imag},
            }
        )
    return {}, {"modal": modes}


def _derived_at_r3(cfg) -> None:
    """Refuse a damping exponent other than 3, the one a certificate was derived for."""
    r = cfg.integrator.damping_exponent
    if r != 3.0:
        raise NotApplicable(f"derived for integrator.damping_exponent 3 only, not {r!r}")


def _lyapunov(cfg, spectrum, verdict, record):
    _derived_at_r3(cfg)  # V is the energy of r = 3
    lyap = analysis.lyapunov_series(record, cfg.system.matrix)
    if not lyap.applicable:
        raise NotApplicable(f"matrix is {lyap.obstruction}; certificate not applicable")
    return {"V": lyap.V, "Vdot": lyap.vdot_analytic}, {}


def _chetaev_negative(cfg, spectrum, verdict, record):
    if not (found := _strongest(spectrum, verdict, spectral.EigenvalueClass.NEGATIVE_REAL)):
        return {}, {}
    _derived_at_r3(cfg)  # W, its cone and t0_required
    cls, w = found
    # the sign of an eigenvector is arbitrary and W is even in it, but the
    # cone is not: orient it by the side xi ends on.  xi and zeta change
    # sign exactly, so W keeps its bits.
    che = analysis.chetaev_negative(record, -w if record.q[-1] @ w.real < 0.0 else w, cls.rate)
    return {"W": che.W}, {
        "chetaev_negative": {
            "mu": cls.rate,
            "t0_required": che.t0_required,
            "meets_entry_condition": che.meets_entry_condition,
            "fraction_in_omega": float(np.mean(che.in_omega)),
        }
    }


def _fitted(fit: analysis.RateFit) -> dict:
    """What a summary says of the fit it reports: its r², window and number of fitted points."""
    return {"r_squared": fit.r_squared, "window": list(fit.window), "n_points": fit.n_points}


def _chetaev_complex(cfg, spectrum, verdict, record):
    if not (found := _strongest(spectrum, verdict, spectral.EigenvalueClass.STRICTLY_COMPLEX)):
        if not _strongest(spectrum, verdict, spectral.EigenvalueClass.NEGATIVE_REAL):
            raise NotApplicable("spectrum has no unstable eigenvalue")
        return {}, {}
    cls, w = found
    che = analysis.chetaev_complex(record, w, cfg.integrator.damping_exponent)
    entry = {"beta_predicted": cls.rate, "beta_measured": che.fit.slope, **_fitted(che.fit)}
    return {"rho": che.rho}, {"chetaev_complex": entry}


def _nullspace(cfg, spectrum, verdict, record):
    try:
        dist = analysis.distance_to_nullspace(record, cfg.system.matrix)
    except TrivialNullspace:
        raise NotApplicable("matrix has full rank") from None
    return {"dist_null": dist.distance}, {"nullspace_dim": dist.nullspace_dim}


def _energy(cfg, spectrum, verdict, record):
    if not (found := _strongest(spectrum, verdict, spectral.EigenvalueClass.STRICTLY_COMPLEX)):
        raise NotApplicable("spectrum has no strictly complex eigenvalue")
    cls, w = found
    y, ydot = analysis.modal_project(record, w)
    resid = analysis.energy_identity_residual(record.times, y, ydot, cls.value, cfg.integrator.damping_exponent)
    return {}, {"energy_identity_residual": resid}


def _rates(cfg, spectrum, verdict, record):
    growing = verdict.dominant_growth_rate > 0.0
    norm_q = np.linalg.norm(record.q, axis=1)
    # fitted as a growing or else an oscillating mode; predicted as a Zero mode where it tends to a null-space limit
    cls = spectral.EigenvalueClass.NEGATIVE_REAL if growing else spectral.EigenvalueClass.POSITIVE_REAL
    recipe = spectral.fit_recipe(cls, cfg.integrator.damping_exponent)
    fit = analysis.fit_rate(record.times, norm_q, **recipe)
    limit = verdict.nagd is spectral.NagdVerdict.STABLE_TO_NULLSPACE
    code = spectral.CLASSES.index(spectral.EigenvalueClass.ZERO if limit else cls)
    predicted = float(spectral.predicted_rate(code, verdict.dominant_growth_rate, cfg.integrator.damping_exponent))
    notes = []
    positive = [c.value.real for c in verdict.per_eigenvalue if c.tag is spectral.EigenvalueClass.POSITIVE_REAL]
    if positive:
        # RK4's own decay of the stiffest positive mode over the fit window
        lam, h = max(positive), cfg.integrator.dt
        lo, hi = fit.window
        loss = (hi - lo) / h * dynamics.rk4_mode_step(h, math.inf, 0.0, lam)[1]
        if loss > 0.1:
            notes.append(
                f"rates: RK4 itself damps the PositiveReal eigenvalue {lam:.6g} by {loss:.4g} in log amplitude over "
                f"the fit window [{lo:g}, {hi:g}] (h*sqrt(lambda) = {h * math.sqrt(lam):.4g}); the fitted slope includes that decay"
            )
    return {}, {
        "rate_fit": {
            "kind": fit.kind,
            "slope": fit.slope,
            **_fitted(fit),
            "predicted": predicted,
        },
        "notes": notes,
    }


#: The diagnostics in CSV column order, as (config name, function, what a
#: record too short for the function leaves undone).  Each function maps
#: (cfg, spectrum, verdict, record) to (CSV columns by name, summary
#: entries), or raises NotApplicable when its hypotheses fail; a ``notes``
#: entry extends the summary's notes.  ``chetaev`` has two rows, one per
#: unstable class.
_DIAGNOSTICS = (
    ("modal", _modal, ""),
    ("lyapunov", _lyapunov, "certificate not evaluated"),
    ("chetaev", _chetaev_negative, "negative certificate not evaluated"),
    ("chetaev", _chetaev_complex, "complex projection not fitted"),
    ("nullspace", _nullspace, ""),
    ("energy", _energy, "identity not evaluated"),
    ("rates", _rates, "fit unavailable"),
)


def _first_step_grows(verdict: spectral.StabilityVerdict, h: float, t0: float, r: float) -> bool:
    """Whether RK4's first step from ``t0`` has a map that is not finite on a mode of G, or outgrows a mode's envelope.

    A mode of envelope rate beta (``ClassifiedEigenvalue.rate``, 0 for the
    Zero and PositiveReal modes) may grow by exp(h beta) in one step; a
    spectral radius up to 1 + 1e-12 times that is rounding, not growth.  A
    Zero mode is taken at lam = 0, where its map has the eigenvalue 1 exactly.
    """
    classes = verdict.per_eigenvalue
    lam = np.array([0.0 if c.tag is spectral.EigenvalueClass.ZERO else c.value for c in classes], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # where r/t0 or h*beta overflows
        maps = dynamics._modal_step_maps(lam, np.array([t0]), h, r, np.empty((1, 2, 2, lam.size), dtype=complex))[0]
        limit = np.exp(h * np.array([c.rate for c in classes])) * (1.0 + 1e-12)
    if not np.isfinite(maps).all():
        return True
    radius = np.abs(np.linalg.eigvals(maps.transpose(2, 1, 0)))  # maps[j, i, p] is M[i, j] of mode p
    return bool((radius > limit[:, None]).any())


def run_experiment(cfg: ExperimentConfig) -> tuple[dynamics.TrajectoryRecord, dict, list[str], list[np.ndarray]]:
    """Simulate one configuration and assemble its CSV columns and summary.

    Returns (record, summary, header, columns).  Diagnostic columns follow
    the fixed order V, Vdot, W, rho, dist_null; diagnostics that do not
    apply to the system, or that the record has too few rows for, are
    skipped with a note in the summary.  A step past RK4's stability limit
    on a PositiveReal mode, or a first step past its limit on the damping
    r/t that grows some mode faster than that mode's envelope rate allows,
    is refused with :class:`ConfigError` before any integration.
    """
    system = cfg.system
    spectrum = spectral.eigendecompose(system.matrix)
    r = cfg.integrator.damping_exponent
    verdict = spectral.classify_matrix(spectrum, t0=cfg.integrator.t0, r=r)
    positive = [c.value.real for c in verdict.per_eigenvalue if c.tag is spectral.EigenvalueClass.POSITIVE_REAL]
    try:
        dynamics.check_rk4_step(cfg.integrator.dt, positive)
    except ValueError as exc:
        raise ConfigError(f"integrator.dt: {exc}") from exc
    # the damping limit binds at the first step; every later step is inside it
    margin = dynamics.rk4_mode_step(h := cfg.integrator.dt, t0 := cfg.integrator.t0, r, 0.0)[0]
    if margin > 1.0 and _first_step_grows(verdict, h, t0, r):
        raise ConfigError(
            f"integrator.t0: the first step from {t0!r} is past RK4's stability limit on the damping r/t "
            f"(dt*r/t0 = {h * (r / t0):.4g} > 2.785); choose integrator.dt <= "
            f"{dynamics._two_digits(h / margin)} or integrator.t0 >= {dynamics._two_digits(t0 * margin, math.ceil)}"
        )
    record = dynamics.simulate_nagd(system.matrix, system.offset, cfg.q0, cfg.v0, cfg.integrator)

    header = ["t"]
    n = system.n
    cols: list[np.ndarray] = [record.times]
    for i in range(n):
        header.append(f"q_{i + 1}")
        cols.append(record.q[:, i])
    for i in range(n):
        header.append(f"v_{i + 1}")
        cols.append(record.v[:, i])
    header.append("norm_q")
    cols.append(np.linalg.norm(record.q, axis=1))

    notes: list[str] = []
    if r <= 1.0:
        notes.append(f"integrator.damping_exponent: {r!r} <= 1 is outside the guaranteed-convergence regime")
    summary: dict = {
        "label": cfg.label,
        "spectrum": _verdict_report(spectrum, verdict),
        "saturated": record.saturated,
        "rows": int(record.n_samples),
        "system_fingerprint": _fingerprint(system),
        "config": config_to_dict(cfg),
        "notes": notes,
    }

    for name, diagnostic, undone in _DIAGNOSTICS:
        if name not in cfg.diagnostics:
            continue
        try:
            columns, entries = diagnostic(cfg, spectrum, verdict, record)
        except NotApplicable as exc:
            notes.append(f"{name}: {exc}")
        except (InsufficientPoints, NonPositiveSeries) as exc:
            notes.append(f"{name}: {undone} ({exc})")
        else:
            header += columns
            cols += columns.values()
            notes += entries.pop("notes", [])
            summary.update(entries)
    return record, summary, header, cols


# --------------------------------------------------------------------------
# canned studies


def _experiment(label, matrix, q0, v0, t_end, diagnostics):
    return parse_config(
        {
            "label": label,
            "source": {"matrix": matrix},
            "initial": {"q0": q0, "v0": v0},
            "integrator": {"t0": 1.0, "t_end": t_end, "dt": 0.01},
            "diagnostics": list(diagnostics),
        }
    )


def _eigenvalues_near(key: str, run: dict, quoted) -> dict:
    """The run's sorted eigenvalues (real parts), each within 0.005 of ``quoted``."""
    eigs = sorted(e["re"] for e in run["spectrum"]["eigenvalues"])
    return {key: eigs, f"{key}_ok": all(abs(e - q) <= 0.005 for e, q in zip(eigs, quoted))}


def _envelope_slope(key: str, value) -> dict:
    """An algebraic envelope slope, or a list of them, each within [-1.7, -1.3]."""
    slopes = value if isinstance(value, list) else [value]
    return {key: value, f"{key}_ok": all(-1.7 <= s <= -1.3 for s in slopes)}


def _fig1_checks(runs, out_dir):
    [(_, _, run)] = runs
    return {
        **_eigenvalues_near("eigenvalues", run, (0.317, 0.883)),
        **_envelope_slope("envelope_slope", run["rate_fit"]["slope"]),
    }


def _fig2_checks(runs, out_dir):
    [(cfg, _, run)] = runs
    nagd_rate = run["rate_fit"]["slope"]
    fo_cfg = dynamics.IntegratorConfig(t0=1.0, t_end=6.0, dt=0.002)
    fo = dynamics.simulate_first_order(cfg.system.matrix, cfg.system.offset, cfg.q0, fo_cfg)
    norms = np.linalg.norm(fo.q, axis=1)
    write_csv(os.path.join(out_dir, f"{cfg.label}_first_order.csv"), ["t", "norm_x"], [fo.times, norms])
    fo_fit = analysis.fit_rate(fo.times, norms, kind="exponential", window=(1.0, 6.0))
    ratio = float(norms[int(round((5.0 - fo_cfg.t0) / fo_cfg.dt))] / norms[0])
    return {
        "nagd_rate": nagd_rate,
        "nagd_rate_ok": abs(nagd_rate - 0.3041) <= 0.1 * 0.3041,
        "first_order_rate": fo_fit.slope,
        "first_order_norm_ratio_at_t5": ratio,
        "first_order_ok": ratio <= math.exp(-24.0) * (1.0 + 1e-3),
    }


def _fig3_checks(runs, out_dir):
    [(_, rec, _)] = runs
    oscillating, _, growing, _ = map(spectral.fit_recipe, spectral.CLASSES)  # the studies are at r = 3
    x1_fit = analysis.fit_rate(rec.times, rec.q[:, 0], **oscillating)
    x2_fit = analysis.fit_rate(rec.times, np.abs(rec.q[:, 1]), **growing)
    return {
        **_envelope_slope("x1_envelope_slope", x1_fit.slope),
        "x2_rate": x2_fit.slope,
        "x2_rate_ok": abs(x2_fit.slope - 0.7071) <= 0.05 * 0.7071,
    }


def _fig4_checks(runs, out_dir):
    [(cfg, rec, _)] = runs
    dist = analysis.distance_to_nullspace(rec, cfg.system.matrix)
    oscillating = spectral.fit_recipe(spectral.EigenvalueClass.POSITIVE_REAL)  # the studies are at r = 3
    d_fit = analysis.fit_rate(rec.times, dist.distance, **oscillating)
    w = dist.basis[:, 0]
    limit = spectral.nullspace_limit(float(rec.times[0]), float(cfg.q0 @ w), float(cfg.v0 @ w))
    error = abs(float(rec.q[-1] @ w) - limit)
    return {
        **_envelope_slope("dist_null_slope", d_fit.slope),
        "final_position_error": error,
        "final_position_ok": error <= 1e-3,
    }


def _fig5_checks(runs, out_dir):
    (_, _, three), (_, _, four) = runs
    return {
        **_eigenvalues_near("three_player_eigenvalues", three, (0.43, 0.62, 1.35)),
        **_eigenvalues_near("four_player_eigenvalues", four, (0.44, 0.58, 0.87, 1.41)),
        **_envelope_slope("norm_decay_slopes", [three["rate_fit"]["slope"], four["rate_fit"]["slope"]]),
    }


#: Canned experiment sets, keyed by CLI name.  Each entry holds its
#: configurations and the function that maps (runs, out_dir) to its checks
#: against the published tolerances; ``runs`` holds one (config, record,
#: summary) per configuration.
FIGURES = {
    "fig1": {
        "title": "two-player potential game: algebraic decay to equilibrium",
        "configs": [
            _experiment(
                "fig1_stable_potential",
                [[0.4, 0.2], [0.2, 0.8]],
                [0.5, 0.3],
                [0.0, 0.0],
                100.0,
                ("lyapunov", "rates"),
            )
        ],
        "checks": _fig1_checks,
    },
    "fig2": {
        "title": "rotationally coupled game: second-order instability, first-order stability",
        "configs": [
            _experiment(
                "fig2_rotational",
                [[6.0, 1.5], [-1.5, 6.0]],
                [1.0, 0.0],
                [0.0, 0.0],
                60.0,
                ("chetaev", "energy", "rates"),
            )
        ],
        "checks": _fig2_checks,
    },
    "fig3": {
        "title": "indefinite diagonal game: saddle escape along the negative mode",
        "configs": [
            _experiment(
                "fig3_indefinite",
                [[1.0, 0.0], [0.0, -0.5]],
                [1.0, 1.0],
                [0.0, 0.0],
                60.0,
                ("chetaev", "rates"),
            )
        ],
        "checks": _fig3_checks,
    },
    "fig4": {
        "title": "singular coupling: convergence to a null-space point",
        "configs": [
            _experiment(
                "fig4_nullspace",
                [[0.25, 0.25], [0.25, 0.25]],
                [0.5, -0.3],
                [0.1, 0.1],
                100.0,
                ("nullspace", "rates"),
            )
        ],
        "checks": _fig4_checks,
    },
    "fig5": {
        "title": "three- and four-player games: per-mode envelope decay",
        "configs": [
            _experiment(
                "fig5_three_player",
                [[1.0, 0.3, 0.2], [0.3, 0.8, 0.25], [0.2, 0.25, 0.6]],
                [0.5, 0.3, -0.4],
                [0.0, 0.0, 0.0],
                100.0,
                ("lyapunov", "rates"),
            ),
            _experiment(
                "fig5_four_player",
                [
                    [1.2, 0.2, 0.15, 0.1],
                    [0.2, 0.9, 0.2, 0.15],
                    [0.15, 0.2, 0.7, 0.1],
                    [0.1, 0.15, 0.1, 0.5],
                ],
                [0.5, 0.3, -0.4, 0.2],
                [0.0, 0.0, 0.0, 0.0],
                100.0,
                ("lyapunov", "rates"),
            ),
        ],
        "checks": _fig5_checks,
    },
}


def reproduce_figure(name: str, out_dir: str) -> dict:
    """Run one canned study, write its artifacts, and summarize."""
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    entry = FIGURES[name]
    runs = []
    for cfg in entry["configs"]:
        record, summary, header, cols = run_experiment(cfg)
        write_csv(os.path.join(out_dir, f"{cfg.label}.csv"), header, cols)
        write_json(os.path.join(out_dir, f"{cfg.label}.json"), summary)
        runs.append((cfg, record, summary))

    checks = entry["checks"](runs, out_dir)
    summary = {
        "figure": name,
        "title": entry["title"],
        "runs": [s for _, _, s in runs],
        "saturated": any(r.saturated for _, r, _ in runs),
        "checks": checks,
        "pass": all(v for k, v in checks.items() if k.endswith("_ok")),
    }
    write_json(os.path.join(out_dir, f"{name}_summary.json"), summary)
    return summary

# --------------------------------------------------------------------------
# parameter sweeps over the eigenvalue plane


def parse_grid(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse 'a0:a1:na,b0:b1:nb' into (real_values, imag_values)."""
    parts = spec.split(",")
    if len(parts) != 2:
        raise ConfigError("grid: expected 'a0:a1:na,b0:b1:nb'")
    axes = []
    for axis_name, part in zip(("real", "imag"), parts):
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"grid.{axis_name}: expected 'start:stop:count'")
        try:
            start, stop = float(bits[0]), float(bits[1])
            count = int(bits[2])
        except ValueError as exc:
            raise ConfigError(f"grid.{axis_name}: {exc}") from exc
        if count < 1:
            raise ConfigError(f"grid.{axis_name}: count must be >= 1")
        if count > GRID_POINT_CAP:  # before linspace allocates the axis
            raise GridTooLarge(f"grid.{axis_name} has {count} points; the cap is {GRID_POINT_CAP}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"grid.{axis_name}: bounds must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            axis = np.linspace(start, stop, count)
        if not np.all(np.isfinite(axis)):
            raise ConfigError(f"grid.{axis_name}: the span {start!r}..{stop!r} overflows")
        axes.append(axis)
    total = axes[0].shape[0] * axes[1].shape[0]
    if total > GRID_POINT_CAP:
        raise GridTooLarge(f"grid has {total} points; the cap is {GRID_POINT_CAP}")
    return axes[0], axes[1]


#: CSV header of a sweep; the last column is the class name.
SWEEP_HEADER = ["re", "im", "predicted_rate", "measured_rate", "class"]

#: End of the integration of each measured sweep point.
_SWEEP_T_END = 60.0

#: Measured points integrated together by :func:`run_sweep`; bounds the
#: batch record (two complex columns of 5 901 rows per point) to about
#: 23 MiB.
_SWEEP_BATCH = 128

#: The table of the measured-rate column of a sweep that was not measured.
_UNMEASURED = np.array([math.nan])


@dataclass(frozen=True)
class SweepResult:
    """A sweep over the grid ``re_axis`` x ``im_axis``, real axis outermost.

    Point k is ``re_axis[k // m] + i im_axis[k % m]``, with m the length
    of ``im_axis``, and ``fold[k]`` is its point of the folded grid (see
    :func:`run_sweep`).  ``fold_rate``, ``fold_measured`` (``None`` when the
    sweep was not measured) and ``fold_codes`` (indices into
    ``spectral.CLASS_NAMES``) hold one entry per folded point, and
    :attr:`columns` gives the CSV writer each table once and an index per
    point.
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    fold: np.ndarray
    fold_rate: np.ndarray
    fold_measured: np.ndarray | None
    fold_codes: np.ndarray

    def __len__(self) -> int:
        return self.fold.shape[0]

    @property
    def columns(self) -> list[CodedColumn]:
        """The CSV columns, in ``SWEEP_HEADER`` order, all coded; the class column is text."""
        shape = (self.re_axis.shape[0], self.im_axis.shape[0])
        re_index, im_index = np.indices(shape, np.min_scalar_type(max(shape))).reshape(2, -1)
        if self.fold_measured is None:
            measured = CodedColumn(_UNMEASURED, np.broadcast_to(np.int32(0), (len(self),)))
        else:
            measured = CodedColumn(self.fold_measured, self.fold)
        return [
            CodedColumn(self.re_axis, re_index),
            CodedColumn(self.im_axis, im_index),
            CodedColumn(self.fold_rate, self.fold),
            measured,
            CodedColumn(spectral.CLASS_NAMES, self.fold_codes.astype(np.int8)[self.fold]),
        ]


def _measure_rates(lam: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Fitted envelope rate of y'' + (r/t) y' + lam y = 0, r = 3, from y(1) = 1, y'(1) = 0.

    ``codes`` are the class codes of ``lam``, each fitted by its class's
    recipe on ``analysis.fit_rate``'s default window, from t = 20 to the end
    of the run.  NaN where the fit has too few usable samples, e.g. after saturation.
    """
    cfg = dynamics.IntegratorConfig(t0=1.0, t_end=_SWEEP_T_END, dt=0.01)
    recipes = [spectral.fit_recipe(tag, cfg.damping_exponent) for tag in spectral.CLASSES]
    measured = np.full(lam.shape, math.nan)
    for lo in range(0, lam.shape[0], _SWEEP_BATCH):
        times, q, _, rows, _ = dynamics._modal_rk4(lam[lo : lo + _SWEEP_BATCH], 1.0, 0.0, cfg)
        for p, (n, code) in enumerate(zip(rows.tolist(), codes[lo : lo + _SWEEP_BATCH].tolist())):
            try:
                fit = analysis.fit_rate(times[:n], np.abs(q[:n, p]), **recipes[code])
            except (InsufficientPoints, NonPositiveSeries):
                continue
            measured[lo + p] = fit.slope
    return measured


def run_sweep(grid_spec: str, measure: bool = False) -> SweepResult:
    """Classify (and optionally measure) modal rates over a complex grid.

    The predicted rate of each point is :func:`nagdyn.spectral.predicted_rate`.
    With ``measure`` the measured points are integrated in batches by the
    batched modal RK4, so memory stays bounded for any grid size.

    Each point of the folded grid, the distinct real values by the distinct
    values of |Im|, is classified and measured once.  G is real, so a mode
    from real data has y(conj lam) = conj y(lam), and the class, the rate
    and |y| of a point are its mirror's, bit for bit; the sign of a zero
    part moves only signs of zeros, so -0.0 and 0.0 fold together.
    """
    re_axis, im_axis = parse_grid(grid_spec)
    re_values, re_fold = np.unique(re_axis, return_inverse=True)
    im_values, im_fold = np.unique(np.abs(im_axis), return_inverse=True)
    re = np.repeat(re_values, im_values.shape[0])
    im = np.tile(im_values, re_values.shape[0])
    codes, rates = spectral.classify_eigenvalues(re, im)
    predicted = spectral.predicted_rate(codes, rates)
    measured = None
    if measure:
        lam = re.astype(complex)
        lam.imag = im
        measured = _measure_rates(lam, codes)
    # int32 from the start: an intp temporary of the grid raised the peak RSS
    fold = np.add.outer(re_fold.astype(np.int32) * np.int32(im_values.shape[0]), im_fold.astype(np.int32)).ravel()
    return SweepResult(
        re_axis=re_axis, im_axis=im_axis, fold=fold, fold_rate=predicted, fold_measured=measured, fold_codes=codes
    )


# --------------------------------------------------------------------------
# invariant self-checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


def _check(name, measured, threshold, detail=""):
    return CheckResult(
        name=name, passed=bool(measured <= threshold), measured=float(measured), threshold=float(threshold), detail=detail
    )


def _check_grids(dt: float) -> dict[str, dynamics.IntegratorConfig]:
    """Every integration grid of :func:`run_invariant_checks` at step ``dt``.

    Raises ``ValueError`` when ``dt`` leaves any of them without steps, or
    leaves t30 fewer rows than the five-point derivatives of the Lyapunov
    and flux checks read (dt <= 8.28 keeps five).
    """
    t30 = dynamics.IntegratorConfig(t0=1.0, t_end=30.0, dt=dt)
    if t30.n_steps < 4:
        raise ValueError(
            f"the grid on [1, 30] keeps {t30.n_steps + 1} rows at this step, and the five-point derivatives "
            "of the Lyapunov and flux checks need at least 5 (dt <= 8.28)"
        )
    return {
        "t30": t30,
        "order": dynamics.IntegratorConfig(t0=1.0, t_end=1.0 + 200.0 * dt, dt=dt),
        "order_half": dynamics.IntegratorConfig(t0=1.0, t_end=1.0 + 200.0 * dt, dt=dt / 2.0),
        **{
            f"damping_{r:g}": dynamics.IntegratorConfig(t0=1.0, t_end=10.0, dt=dt, damping_exponent=r)
            for r in (2.0, 3.0, 4.0)
        },
        "t20": dynamics.IntegratorConfig(t0=1.0, t_end=20.0, dt=dt),
        "t60": dynamics.IntegratorConfig(t0=1.0, t_end=60.0, dt=dt),
    }


def _damping_error(rec: dynamics.TrajectoryRecord, cfg: dynamics.IntegratorConfig) -> float:
    """Worst relative error of a free particle's speed against v(t) = (t0/t)^r, v0 = 1."""
    expect = (cfg.t0 / rec.times) ** cfg.damping_exponent
    return float(np.max(np.abs(rec.v[:, 0] - expect) / expect))


def _vector_flow_checks(grids: dict[str, dynamics.IntegratorConfig], rng) -> tuple[dict[str, CheckResult], float]:
    """The r = 3 vector-flow checks of :func:`run_invariant_checks`, by
    name, and the r = 3 free particle's damping-law error.

    Their six runs share t0, dt and r and differ in G and in their grid,
    so they run as one block-diagonal system on t60, the longest grid.
    RK4 on a linear flow multiplies only by G~ and by scalars, so each
    block evolves as it would alone, and a grid that shares t0, dt and r
    with a longer one is a row prefix of it: a run reads its block's
    columns and its own grid's rows, bit for bit its separate run.  At
    every step ``_check_grids`` accepts the batch stays far below the
    overflow guard, which would otherwise cut every block at once.
    ``rng`` draws the translation sample.
    """
    psd = [[0.4, 0.2], [0.2, 0.8]]
    skew = [[0.0, 1.0], [-1.0, 0.0]]
    # translation invariance of the inhomogeneous flow: the run from q0 with
    # offset b against the homogeneous run from q0 - x*
    basis, _ = np.linalg.qr(rng.randn(3, 3))
    gmat = basis @ np.diag([0.4, 0.9, 1.7]) @ basis.T
    b = rng.randn(3) * 0.3
    x_star = np.linalg.solve(gmat, -b)
    q0 = rng.randn(3)
    v0 = rng.randn(3) * 0.2
    # (G, b, q0, v0, grid) of each run, in block order
    runs = (
        (psd, [0.0, 0.0], [0.5, 0.3], [0.0, 0.0], "t30"),
        (skew, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], "t30"),
        (gmat, b, q0, v0, "t20"),
        (gmat, np.zeros(3), q0 - x_star, v0, "t20"),
        ([[0.0]], [0.0], [0.2], [0.8], "t60"),
        ([[0.0]], [0.0], [0.0], [1.0], "damping_3"),
    )
    mats, offsets, q0s, v0s, names = zip(*runs)
    edges = np.cumsum([0] + [len(q) for q in q0s])
    g = np.zeros((edges[-1], edges[-1]))
    for gi, lo, hi in zip(mats, edges, edges[1:]):
        g[lo:hi, lo:hi] = gi
    batch = dynamics.simulate_nagd(g, np.concatenate(offsets), np.concatenate(q0s), np.concatenate(v0s), grids["t60"])
    recs = []
    for name, lo, hi in zip(names, edges, edges[1:]):
        cfg = grids[name]
        m = cfg.n_steps // cfg.record_stride + 1
        q, v = batch.q[:m, lo:hi], batch.v[:m, lo:hi]
        recs.append(dynamics._record("nagd", batch.times[:m], q, v, batch.saturated, cfg))
    rec_psd, rec_skew, rec_inhom, rec_hom, rec_zero, rec_free = recs

    # Lyapunov monotonicity on a symmetric PSD sample
    lyap = analysis.lyapunov_series(rec_psd, psd)
    increase = float(np.max(np.diff(lyap.V) / np.maximum(lyap.V[:-1], 1e-300)))
    # skew interaction: the certificate must report not-applicable, not fail
    lyap_skew = analysis.lyapunov_series(rec_skew, skew)
    # a zero mode tends to its limit
    lim = spectral.nullspace_limit(1.0, 0.2, 0.8)
    checks = (
        _check("lyapunov_dissipation", increase, 1e-8, detail="max relative per-step increase"),
        CheckResult(
            "lyapunov_skew_not_applicable",
            passed=not lyap_skew.applicable,
            measured=float(np.max(np.abs(lyap_skew.skew_residual))),
            threshold=0.0,
            detail="skew residual magnitude; pass = certificate declares itself inapplicable",
        ),
        _check("translation_invariance", float(np.max(np.abs(rec_inhom.q - (rec_hom.q + x_star)))), 1e-10),
        _check("nullspace_limit", abs(float(rec_zero.q[-1, 0]) - lim), 1e-3),
    )
    return {c.name: c for c in checks}, _damping_error(rec_free, grids["damping_3"])


def run_invariant_checks(dt: float = 0.01) -> list[CheckResult]:
    """Cross-cutting consistency checks; ``dt`` scales the integration grids.

    Deliberately coarse steps (e.g. dt = 0.5) break the discretization-
    dependent checks (modal agreement, RK4 order, flux identity) while the
    step-free identities keep passing, which is exactly the degradation
    the report is meant to expose.
    """
    grids = _check_grids(dt)  # a step that fits no grid fails before any check runs
    # the batch runs first and is freed on return, before the Bessel and
    # modal stages allocate theirs, so the two peaks do not stack; the
    # eigensolver samples below continue the rng after the translation sample
    rng = np.random.RandomState(7)
    flows, damping_3 = _vector_flow_checks(grids, rng)
    checks: list[CheckResult] = []

    # Wronskian of the oscillatory pair: J1 Y1' - J1' Y1 = 2/(pi z).
    # Off the real axis the two products grow like e^{2|Im z|} while their
    # difference stays 2/(pi z), so the defect is measured against the
    # product magnitude (the identity's own conditioning), not the target.
    polar = [r * complex(math.cos(a), math.sin(a)) for r in (1.0, 8.0, 19.0, 23.0) for a in (0.7, -1.2)]
    z = np.concatenate([np.linspace(0.5, 40.0, 24), polar])
    j0, j1, y0, y1 = special._jy01(z)
    j1p, y1p = j0 - j1 / z, y0 - y1 / z
    target = 2.0 / (math.pi * z)
    scale = np.maximum(np.abs(target), np.abs(j1 * y1p) + np.abs(j1p * y1))
    checks.append(_check("bessel_wronskian_jy", np.max(np.abs(j1 * y1p - j1p * y1 - target) / scale), 1e-10))

    # Wronskian of the modified pair: I1 K1' - I1' K1 = -1/x
    x = np.linspace(0.5, 25.0, 20)
    (i0, i1), (k0, k1) = special._i01(x), special._k01(x)
    i1p, k1p = i0 - i1 / x, -k0 - k1 / x
    checks.append(_check("bessel_wronskian_ik", np.max(np.abs(i1 * k1p - i1p * k1 + 1.0 / x) * x), 1e-10))

    # connection formula J1(ix) = i I1(x), through the public scalar
    # functions so their single-argument path is checked too
    worst = 0.0
    for x in np.linspace(0.5, 20.0, 12):
        rhs = 1j * special.bessel_i1(x)
        worst = max(worst, abs(special.bessel_j1(complex(0.0, x)) - rhs) / abs(rhs))
    checks.append(_check("bessel_connection_formula", worst, 1e-9))

    # series/asymptotic agreement across the handover band
    z = np.array([r * complex(math.cos(a), math.sin(a)) for r in np.linspace(15.0, 25.0, 9) for a in (0.0, 0.9, -1.3)])
    worst = max(
        np.max(np.abs(u - v) / np.maximum(1.0, np.abs(u)))
        for u, v in zip(special._jy01_series(z), special._jy01_asymptotic(z))
    )
    checks.append(_check("bessel_series_asymptotic_band", worst, 1e-8))

    # RK4 order: halving dt should shrink the error by about 16; its two
    # runs come first, so their closed forms join the modal ones below
    order_lam = 0.7
    order_recs = [dynamics.simulate_modal(order_lam, 1.0, 0.0, grids[g]) for g in ("order", "order_half")]

    # closed-form modal solution vs RK4.  These five modes and the flux
    # mode 1j share the t30 grid and y = 1, y' = 0, so they run as six
    # lanes of one batched integration; lane p is q[:rows[p], p], bit for
    # bit what simulate_modal gives for that mode alone.  The flux lane is
    # used at once and only the five modal lanes are kept, so the six-lane
    # record is freed before the closed forms allocate their temporaries
    # (holding it there raised the peak RSS of `check` by about 0.5 MiB).
    modal_lams = (0.317, 0.883, 1.0, -0.5, complex(6.0, 1.5))
    times, q, v, rows, _ = dynamics._modal_rk4(modal_lams + (1j,), 1.0, 0.0, grids["t30"])
    n = rows[-1]
    flux_resid = analysis.energy_identity_residual(times[:n], q[:n, -1], v[:n, -1], 1j)
    modes = q[:, :-1].copy()
    del q, v
    # every closed form in one evaluation: each branch's modes share one
    # Bessel call, bit for bit the modes evaluated one by one
    sols = [special.make_modal_solution(lam, 1.0, 1.0, 0.0) for lam in modal_lams + (order_lam,)]
    series = special.eval_modal_batch(
        sols + sols[-1:], [times[: rows[p]] for p in range(len(modal_lams))] + [rec.times for rec in order_recs]
    )
    worst = 0.0
    for p, ref in enumerate(series[: len(modal_lams)]):
        scale = float(np.max(np.abs(ref.y)))
        worst = max(worst, float(np.max(np.abs(ref.y - modes[: rows[p], p]))) / scale)
    checks.append(_check("modal_closed_form_agreement", worst, 1e-5, detail="sup-relative over [1, 30]"))

    errs = [float(np.max(np.abs(ref.y - rec.q))) for ref, rec in zip(series[len(modal_lams) :], order_recs)]
    factor = errs[0] / max(errs[1], 1e-300)
    ok = 12.0 <= factor <= 20.0
    checks.append(CheckResult("rk4_order_factor", ok, factor, 16.0, detail="error ratio for dt vs dt/2"))

    # free-particle damping law: v(t) = (t0/t)^r v0; the r = 3 run is a
    # block of the vector-flow batch.  max runs over r = 2, 3, 4 in order,
    # which decides what a NaN error reads as
    damping_2, damping_4 = (
        _damping_error(dynamics.simulate_nagd([[0.0]], [0.0], [0.0], [1.0], cfg), cfg)
        for cfg in (grids["damping_2"], grids["damping_4"])
    )
    worst = max(0.0, damping_2, damping_3, damping_4)
    # the steep early transient of (t0/t)^4 puts the RK4 floor near 2e-8
    checks.append(_check("damping_power_law", worst, 1e-7))

    checks.append(flows["lyapunov_dissipation"])
    checks.append(flows["lyapunov_skew_not_applicable"])
    # flux identity for a purely imaginary eigenvalue, from the 1j lane above
    checks.append(_check("flux_identity_residual", flux_resid, 1e-5))
    checks.append(flows["translation_invariance"])
    checks.append(flows["nullspace_limit"])

    # eigensolver reconstruction on seeded well-conditioned samples
    worst = 0.0
    for trial in range(6):
        n = 2 + trial % 4
        qmat, _ = np.linalg.qr(rng.randn(n, n))
        pmat = qmat @ np.diag(1.0 + rng.rand(n) * 2.0) @ np.linalg.qr(rng.randn(n, n))[0]
        gmat = pmat @ np.diag(rng.rand(n) * 3.0) @ np.linalg.inv(pmat)
        spec = spectral.eigendecompose(gmat)
        recon = spec.right_vectors @ np.diag(spec.eigenvalues) @ np.conj(spec.left_vectors)
        worst = max(worst, float(np.max(np.abs(recon - gmat))) / max(1.0, float(np.linalg.norm(gmat))))
    checks.append(_check("eigensolver_reconstruction", worst, 1e-8))

    return checks
