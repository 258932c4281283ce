#!/usr/bin/env python3
"""Benchmark of nagdyn through its own CLI entry point, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --quick          # every output check, in seconds
    python3 bench/run.py --workload sweep --trace 1      # per-layer metrics

Each operation is one ``nagdyn.cli.main(argv)`` call made in this process,
with its stdout captured, one after another (a closed loop, no threads).
A run sets the workload up, repeats whole rounds of its fixed operation list
for about ``--seconds`` seconds, then checks every operation's output
against independent computations (``checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are corrected for the host's speed.  A shared 2-vCPU VM can run the
same code up to twice as slow for a minute or more at a time, and the
slowdown hits all code alike.  So a fixed reference kernel that uses no nagdyn
code is timed before and after every timed command and every set-up, and
each time is scaled by ``REF_NOMINAL_S`` over the mean of its two bracketing
kernel times: the figures read in seconds at the host speed at which the
kernel takes ``REF_NOMINAL_S``.  The raw figures and the host factor are
printed above the JSON line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced round of every workload, whatever ``--workload``
names, so that each per-layer metric is measured in every traced run;
spans go to ``.bench_out/trace.jsonl``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1

# Wall time of reference_kernel() at nominal host speed: about its median
# over the runs of the reference figures in README.md (a 2-core VM).
REF_NOMINAL_S = 0.018
_REF_MATRIX = np.random.default_rng(0).standard_normal((16, 16))

# Times `import nagdyn.cli` in a fresh interpreter, as a user's first command pays it.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import nagdyn.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "cpu_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Result:
    code: int
    stdout: str
    wall: float
    cpu: float
    error: str = ""
    digest: str = ""
    speed: float = 1.0  # REF_NOMINAL_S over the bracketing reference-kernel time


def import_nagdyn():
    """Import nagdyn from this checkout's src/; never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "nagdyn", "cli.py")):
        raise SystemExit(f"error: no nagdyn sources under {SRC}")
    sys.path.insert(0, SRC)
    import nagdyn.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(nagdyn.__file__))) != SRC:
        raise SystemExit(f"error: imported nagdyn from {nagdyn.__file__}, not from {SRC}")
    return nagdyn.cli


def import_seconds() -> float:
    """Time to import nagdyn in a fresh interpreter, which waits for it to end."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def reference_kernel() -> float:
    """Wall time of a fixed kernel that uses no nagdyn code: an interpreter
    loop, small-array numpy arithmetic and small eigensolves, the mix that
    nagdyn's commands are made of."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(24000):
        acc += (k % 7) * 0.5
    x = np.ones(8)
    for _ in range(6000):
        x = 0.999 * x + 0.001
    for _ in range(32):
        np.linalg.eigvals(_REF_MATRIX)
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor that turns a time bracketed by two kernel times into nominal-speed time."""
    return 2.0 * REF_NOMINAL_S / (before + after)


def call(cli, argv: list[str]) -> Result:
    """One CLI operation; a traceback inside the CLI is a failed operation."""
    buf = io.StringIO()
    error = ""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
        code, error = 1, f"{type(exc).__name__}: {exc}"
    return Result(code, buf.getvalue(), time.perf_counter() - wall0, time.process_time() - cpu0, error)


def _digest(op, res: Result) -> str:
    h = hashlib.sha256(f"{res.code}\n{res.error}\n{res.stdout}".encode())
    for path in op.artifacts:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"\0missing\0")
    return h.hexdigest()


def setup(cli, wl, seed: int, quick: bool, repeats: int):
    """Import nagdyn in a fresh interpreter, generate the inputs and run the
    untimed warm-up, `repeats` times; returns the ops and the (raw,
    nominal-speed) time of each set-up."""
    work = os.path.join(OUT, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    times = []
    before = reference_kernel()
    for _ in range(repeats):
        start = time.perf_counter()
        ops = wl.build(np.random.default_rng([seed, wl.index]), work, quick)
        warm = call(cli, wl.warmup(work))
        if warm.code != 0:
            raise RuntimeError(f"{wl.name}: warm-up operation failed ({warm.code} {warm.error})")
        raw = time.perf_counter() - start + import_seconds()
        after = reference_kernel()
        times.append((raw, raw * speed(before, after)))
        before = after
    return ops, times


def run_round(cli, ops) -> list[Result]:
    results = []
    before = reference_kernel()
    for op in ops:
        res = call(cli, op.argv)
        after = reference_kernel()
        res.speed = speed(before, after)
        before = after
        res.digest = _digest(op, res)  # outside the operation's timing
        results.append(res)
    return results


def evaluate(ops, rounds: list[list[Result]]) -> tuple[bool, int, list[str]]:
    """(correct, failed, problems) over every round of every operation.

    The files on disk are the last round's; an earlier round whose stdout
    and files differ from them produced different output and fails.  An
    operation that exits non-zero or raises fails without making the run
    incorrect; one whose output fails its check makes it incorrect.
    """
    correct, failed, problems = True, 0, []
    last = rounds[-1]
    for i, op in enumerate(ops):
        res = last[i]
        if res.code != 0:
            bad = [f"exit code {res.code} {res.error}".strip()]
        else:
            try:
                bad = op.check(op, res.code, res.stdout)
            except Exception as exc:  # noqa: BLE001 - unreadable output is wrong output
                bad = [f"output check raised {type(exc).__name__}: {exc}"]
            correct = correct and not bad
        problems += [f"{op.label}: {p}" for p in bad]
        for rnd in rounds:
            if bad:
                failed += 1
            elif rnd[i].digest != res.digest:
                failed += 1
                correct = False
                problems.append(f"{op.label}: output differs between rounds")
    return correct, failed, problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(cli, wl, seed: int, seconds: float, quick: bool) -> dict:
    ops, setup_times = setup(cli, wl, seed, quick, 1 if quick else wl.setup_repeats)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, ops))
        elapsed = time.perf_counter() - start
        # whole rounds only; stop before a round that would overrun --seconds
        if quick or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    peak = peak_rss_mib()  # before the checks, which load scipy
    correct, failed, problems = evaluate(ops, rounds)
    for p in problems[:20]:
        print(f"{wl.name}: {p}", file=sys.stderr)
    for i, op in enumerate(ops):
        print(f"  {wl.name} op {op.label:32s} p50 {1e3 * statistics.median(rnd[i].wall * rnd[i].speed for rnd in rounds):10.2f} ms")
    speeds = sorted(r.speed for rnd in rounds for r in rnd)
    print(
        f"  {wl.name} raw: setup_s {statistics.median(t for t, _ in setup_times):.4f}"
        f" run_s {statistics.median(sum(r.wall for r in rnd) for rnd in rounds):.4f};"
        f" host factor min/median/max {speeds[0]:.3f} / {statistics.median(speeds):.3f} / {speeds[-1]:.3f}"
    )
    values = {
        "setup_s": statistics.median(t for _, t in setup_times),
        "run_s": statistics.median(sum(r.wall * r.speed for r in rnd) for rnd in rounds),
        # the median operation of each round, then the median over rounds: a
        # pooled median of unlike commands would sit between the slowest
        # short command and the fastest long one, and move with both
        "op_p50_ms": 1e3 * statistics.median(statistics.median(r.wall * r.speed for r in rnd) for rnd in rounds),
        "cpu_s": statistics.median(sum(r.cpu * r.speed for r in rnd) for rnd in rounds),
        "peak_rss_mib": peak,
    }
    return {
        "correct": correct,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "rounds": len(rounds),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def run_traced(cli, seed: int, quick: bool) -> dict:
    tracer = Tracer()
    correct, attempted, failed = True, 0, 0
    plain_s = traced_s = 0.0
    for wl in WORKLOADS.values():
        ops, _ = setup(cli, wl, seed, quick, 1)
        plain = run_round(cli, ops)
        tracer.tag = wl.name
        tracer.install()
        try:
            traced = run_round(cli, ops)  # the reference kernel calls no traced function
        finally:
            tracer.uninstall()
        plain_s += sum(r.wall * r.speed for r in plain)
        traced_s += sum(r.wall * r.speed for r in traced)
        ok, bad, problems = evaluate(ops, [plain, traced])
        for p in problems[:20]:
            print(f"{wl.name}: {p}", file=sys.stderr)
        correct, attempted, failed = correct and ok, attempted + 2 * len(ops), failed + bad
    tracer.write_jsonl(os.path.join(OUT, "trace.jsonl"))
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _print_summary(name: str, result: dict) -> None:
    rounds = f", {result['rounds']} rounds" if "rounds" in result else ""
    print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}{rounds}")
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced inputs, one round: every check in seconds")
    args = parser.parse_args(argv)

    cli = import_nagdyn()
    if args.trace:
        result = run_traced(cli, args.seed, args.quick)
        _print_summary("traced, all workloads", result)
    elif args.workload == "all":
        parts = {name: run_workload(cli, wl, args.seed, args.seconds, args.quick) for name, wl in WORKLOADS.items()}
        for name, part in parts.items():
            _print_summary(name, part)
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{name}.{k}": m for name, p in parts.items() for k, m in p["metrics"].items()},
        }
    else:
        result = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds, args.quick)
        _print_summary(args.workload, result)
        result.pop("rounds")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
