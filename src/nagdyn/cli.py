"""Command-line front end.

Subcommands
-----------
classify    spectral report (eigenvalues, classes, rates, verdicts)
simulate    integrate one configuration and write CSV + JSON artifacts
reproduce   run a canned study (fig1..fig5) and write its artifacts
sweep       classify / measure modal rates over a grid in the lam-plane
check       run the cross-cutting invariant self-checks

Exit codes: 0 success, 2 configuration error, 3 trajectory saturated
(overflow truncation), 4 invariant-check failure (``check``) or a failed
figure check (``reproduce``, ahead of 3), 5 output error (an
artifact could not be written, e.g. ``--out`` names a path under a
regular file, or the reader of stdout went away, as in
``nagdyn classify ... | head -n 1``, which ends silently), 6 numerical
error (an exponential factor overflowed, or the eigensolver did not
converge).

A ``--grid`` value that starts with a minus sign may follow ``--grid``
as its own argument (``--grid -2:6:8,-3:3:8``) or be joined to it
(``--grid=-2:6:8,-3:3:8``).

A command runs numpy's OpenBLAS on one thread and then restores the
caller's thread count: nagdyn's products are too small for a second
thread to pay, while OpenBLAS's idle worker would spin on another core.
Library calls keep the caller's setting.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import json
import os
import re
import sys

from . import experiments, spectral
from .errors import ConfigError, EigensolverNoConvergence, NagdynError, OutputError, OverflowSaturation

__all__ = [
    "main",
    "cmd_classify",
    "cmd_simulate",
    "cmd_reproduce",
    "cmd_sweep",
    "cmd_check",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SATURATED = 3
EXIT_INVARIANT = 4
EXIT_OUTPUT = 5
EXIT_NUMERICAL = 6


def _out_dir(explicit: str | None) -> str:
    if explicit:
        return explicit
    return os.environ.get("NAGD_OUT_DIR", os.getcwd())


def cmd_classify(config_path: str, out_dir: str | None = None) -> int:
    cfg = experiments.load_config(config_path)
    spectrum = spectral.eigendecompose(cfg.system.matrix)
    verdict = spectral.classify_matrix(spectrum, t0=cfg.integrator.t0, r=cfg.integrator.damping_exponent)
    report = experiments._verdict_report(spectrum, verdict)
    report["label"] = cfg.label
    for lam, tag, rate in zip(report["eigenvalues"], report["classes"], report["rates"]):
        print(f"lambda = {lam['re']:+.12g} {lam['im']:+.12g}i  {tag:16s} rate = {rate:.12g}")
    if report["dominant_growth_rate"] > 0.0:
        nagd_note = f"growth rate = {report['dominant_growth_rate']:.4g}"
    else:
        nagd_note = f"envelope ~ t^{spectral.envelope_power(cfg.integrator.damping_exponent):g}"
    print(f"accelerated flow : {report['nagd_verdict']} ({nagd_note})")
    print(f"first-order flow : {report['first_order_verdict']} (rate = {report['first_order_rate']:.4g})")
    if report["bound_constant"] is not None:
        print(f"bound constant C = {report['bound_constant']:.12g} (kappa_P = {report['kappa_P']:.6g})")
    if out_dir is not None:
        path = os.path.join(out_dir, f"{cfg.label}_classify.json")
        experiments.write_json(path, report)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(config_path: str, out_dir: str, stride: int | None = None) -> int:
    cfg = experiments.load_config(config_path)
    if stride is not None:
        try:
            integrator = dataclasses.replace(cfg.integrator, record_stride=stride)
        except ValueError as exc:
            raise ConfigError(f"--stride {stride}: {exc}") from exc
        cfg = dataclasses.replace(cfg, integrator=integrator)
    record, summary, header, cols = experiments.run_experiment(cfg)
    csv_path = os.path.join(out_dir, f"{cfg.label}.csv")
    json_path = os.path.join(out_dir, f"{cfg.label}.json")
    experiments.write_csv(csv_path, header, cols)
    experiments.write_json(json_path, summary)
    print(f"wrote {csv_path} ({record.n_samples} rows, saturated={record.saturated})")
    print(f"wrote {json_path}")
    return EXIT_SATURATED if record.saturated else EXIT_OK


def cmd_reproduce(figure: str, out_dir: str) -> int:
    summary = experiments.reproduce_figure(figure, out_dir)
    for run in summary["runs"]:
        line = f"{run['label']}: verdict={run['spectrum']['nagd_verdict']}"
        if "rate_fit" in run:
            fit = run["rate_fit"]
            line += f" slope={fit['slope']:.4f} (predicted {fit['predicted']:.4f}, kind={fit['kind']})"
        print(line)
    status = "pass" if summary["pass"] else "FAIL"
    print(f"checks: {status} " + json.dumps(summary["checks"], sort_keys=True))
    print(f"wrote {os.path.join(out_dir, figure + '_summary.json')}")
    if not summary["pass"]:
        return EXIT_INVARIANT
    return EXIT_SATURATED if summary["saturated"] else EXIT_OK


def cmd_sweep(grid: str, out_dir: str, measure: bool = False) -> int:
    sweep = experiments.run_sweep(grid, measure=measure)
    path = os.path.join(out_dir, "sweep.csv")
    experiments.write_csv(path, experiments.SWEEP_HEADER, sweep.columns)
    print(f"wrote {path} ({len(sweep)} points)")
    return EXIT_OK


def cmd_check(out_dir: str | None = None, dt: float = 0.01) -> int:
    try:
        results = experiments.run_invariant_checks(dt=dt)
    except ValueError as exc:
        raise ConfigError(f"--dt {dt!r}: {exc}") from exc
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f" ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}: measured {r.measured:.6g} vs threshold {r.threshold:.6g}{extra}")
    if out_dir is not None:
        payload = {
            "dt": dt,
            "failures": [r.name for r in failures],
            "checks": [dataclasses.asdict(r) for r in results],
        }
        path = os.path.join(out_dir, "check_report.json")
        experiments.write_json(path, payload)
        print(f"wrote {path}")
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed: " + ", ".join(r.name for r in failures))
        return EXIT_INVARIANT
    print(f"all {len(results)} checks passed")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nagdyn",
        description="Accelerated-gradient game dynamics: simulation and spectral analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="spectral classification of a configured system")
    p.add_argument("--config", required=True, help="path to a JSON experiment configuration")
    p.add_argument("--out", default=None, help="directory for the JSON report (default: print only)")

    p = sub.add_parser("simulate", help="integrate one configuration and write artifacts")
    p.add_argument("--config", required=True, help="path to a JSON experiment configuration")
    p.add_argument("--out", default=None, help="output directory (default: $NAGD_OUT_DIR or cwd)")
    p.add_argument("--stride", type=int, default=None, help="override the record stride")

    p = sub.add_parser("reproduce", help="run a canned study")
    p.add_argument("--figure", required=True, choices=sorted(experiments.FIGURES), help="study name")
    p.add_argument("--out", default=None, help="output directory (default: $NAGD_OUT_DIR or cwd)")

    p = sub.add_parser("sweep", help="classify modal rates over a grid in the eigenvalue plane")
    p.add_argument("--grid", required=True, help="a0:a1:na,b0:b1:nb")
    p.add_argument("--out", default=None, help="output directory (default: $NAGD_OUT_DIR or cwd)")
    p.add_argument("--measure", action="store_true", help="also measure rates by simulation")

    p = sub.add_parser("check", help="run the invariant self-checks")
    p.add_argument("--out", default=None, help="directory for the JSON report (default: print only)")
    p.add_argument("--dt", type=float, default=0.01, help="integration step used by the checks")

    return parser


#: A value that argparse would take for an option because of its leading minus.
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_grid_values(argv: list[str]) -> list[str]:
    """Rewrite ``--grid -a:b:n,...`` as ``--grid=-a:b:n,...``.

    argparse reads an argument that starts with ``-`` and is not a plain
    number as an option, so a grid with a negative lower bound would
    otherwise be refused with "expected one argument".
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


#: Each subcommand's handler, by name.  The lambdas look the ``cmd_*``
#: functions up when called, so a wrapper installed on them is honoured.
_COMMANDS = {
    "classify": lambda a: cmd_classify(a.config, a.out),
    "simulate": lambda a: cmd_simulate(a.config, _out_dir(a.out), a.stride),
    "reproduce": lambda a: cmd_reproduce(a.figure, _out_dir(a.out)),
    "sweep": lambda a: cmd_sweep(a.grid, _out_dir(a.out), a.measure),
    "check": lambda a: cmd_check(a.out, a.dt),
}


#: OpenBLAS's (set, get) thread-count functions, under the names its builds
#: export: scipy-openblas with 64-bit and 32-bit integers, then plain OpenBLAS.
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_thread_api():
    """numpy's OpenBLAS ``(set_num_threads, get_num_threads)``, or None.

    ``dlsym`` on numpy's linear-algebra extension also searches the BLAS it
    links.  None means another BLAS (MKL, Accelerate) whose threads are left
    as they are.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_THREAD_API:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the caller's count."""
    api = _blas_thread_api()
    if api is None:
        yield
        return
    set_threads, get_threads = api
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_grid_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        with _one_blas_thread():
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a reader gone before the end is seen here
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (``| head -n 1``): the rest of the
        # output, and its flush at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OUTPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (OverflowSaturation, EigensolverNoConvergence) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NagdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
