"""Command-line front end.

Subcommands
-----------
classify    spectral report (eigenvalues, classes, rates, verdicts)
simulate    integrate one configuration and write CSV + JSON artifacts
reproduce   run a canned study (fig1..fig5) and write its artifacts
sweep       classify / measure modal rates over a grid in the lam-plane
check       run the cross-cutting invariant self-checks

Exit codes: 0 success, 2 configuration error, 3 trajectory saturated
(overflow truncation), 4 invariant-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import experiments, spectral
from .errors import ConfigError, NagdynError

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


def _out_dir(explicit: str | None) -> str:
    if explicit:
        return explicit
    return os.environ.get("NAGD_OUT_DIR", os.getcwd())


def cmd_classify(config_path: str, out_dir: str | None = None) -> int:
    cfg = experiments.load_config(config_path)
    spectrum = spectral.eigendecompose(cfg.system.matrix)
    verdict = spectral.classify_matrix(spectrum, t0=cfg.integrator.t0)
    report = experiments._verdict_report(spectrum, verdict)
    report["label"] = cfg.label
    for lam, tag, rate in zip(report["eigenvalues"], report["classes"], report["rates"]):
        print(f"lambda = {lam['re']:+.12g} {lam['im']:+.12g}i  {tag:16s} rate = {rate:.12g}")
    if report["dominant_growth_rate"] > 0.0:
        nagd_note = f"growth rate = {report['dominant_growth_rate']:.4g}"
    else:
        nagd_note = "envelope ~ t^-1.5"
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
        if stride < 1:
            raise ConfigError("--stride must be a positive integer")
        integ = experiments.dynamics.IntegratorConfig(
            t0=cfg.integrator.t0,
            t_end=cfg.integrator.t_end,
            dt=cfg.integrator.dt,
            damping_exponent=cfg.integrator.damping_exponent,
            record_stride=stride,
        )
        cfg = experiments.ExperimentConfig(
            label=cfg.label,
            system=cfg.system,
            q0=cfg.q0,
            v0=cfg.v0,
            integrator=integ,
            diagnostics=cfg.diagnostics,
        )
    record, summary, header, cols = experiments.run_experiment(cfg)
    csv_path = os.path.join(out_dir, f"{cfg.label}.csv")
    json_path = os.path.join(out_dir, f"{cfg.label}.json")
    experiments.write_csv(csv_path, header, cols)
    experiments.write_json(json_path, summary)
    print(f"wrote {csv_path} ({record.n_samples} rows, saturated={record.saturated})")
    print(f"wrote {json_path}")
    return EXIT_SATURATED if record.saturated else EXIT_OK


def cmd_reproduce(figure: str, out_dir: str, jobs: int = 1) -> int:
    summary = experiments.reproduce_figure(figure, out_dir, jobs=jobs)
    for run in summary["runs"]:
        line = f"{run['label']}: verdict={run['spectrum']['nagd_verdict']}"
        if "rate_fit" in run:
            fit = run["rate_fit"]
            line += f" slope={fit['slope']:.4f} (predicted {fit['predicted']:.4f}, kind={fit['kind']})"
        print(line)
    status = "pass" if summary["pass"] else "FAIL"
    print(f"checks: {status} " + json.dumps(experiments._json_ready(summary["checks"]), sort_keys=True))
    print(f"wrote {os.path.join(out_dir, figure + '_summary.json')}")
    return EXIT_SATURATED if summary["saturated"] else EXIT_OK


def cmd_sweep(grid: str, out_dir: str, measure: bool = False, jobs: int = 1) -> int:
    rows = experiments.run_sweep(grid, measure=measure, jobs=jobs)
    path = os.path.join(out_dir, "sweep.csv")
    cols = [
        np.array([r["re"] for r in rows]),
        np.array([r["im"] for r in rows]),
        np.array([r["predicted_rate"] for r in rows]),
        np.array([r["measured_rate"] for r in rows]),
    ]
    header = ["re", "im", "predicted_rate", "measured_rate"]
    lines = [",".join(header + ["class"])]
    for i, r in enumerate(rows):
        lines.append(
            ",".join(experiments._fmt(c[i]) for c in cols) + "," + r["class"]
        )
    experiments._atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def cmd_check(out_dir: str | None = None, dt: float = 0.01) -> int:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"--dt: expected a positive finite step, got {dt!r}")
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
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "threshold": r.threshold,
                    "detail": r.detail,
                }
                for r in results
            ],
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
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser("sweep", help="classify modal rates over a grid in the eigenvalue plane")
    p.add_argument("--grid", required=True, help="a0:a1:na,b0:b1:nb")
    p.add_argument("--out", default=None, help="output directory (default: $NAGD_OUT_DIR or cwd)")
    p.add_argument("--measure", action="store_true", help="also measure rates by simulation")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser("check", help="run the invariant self-checks")
    p.add_argument("--out", default=None, help="directory for the JSON report (default: print only)")
    p.add_argument("--dt", type=float, default=0.01, help="integration step used by the checks")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args.config, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, _out_dir(args.out), args.stride)
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, _out_dir(args.out), args.jobs)
        if args.command == "sweep":
            return cmd_sweep(args.grid, _out_dir(args.out), args.measure, args.jobs)
        if args.command == "check":
            return cmd_check(args.out, args.dt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NagdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
