"""Tests of the benchmark itself, on the reduced (quick) inputs.

Run from the repository root:

    python3 -m pytest bench/check_quick.py -q

The file name keeps it out of the default test collection, so the
repository's own suite does not run the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture(scope="module")
def nagdyn_cli():
    return run.import_nagdyn()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_workload_passes_every_check(nagdyn_cli, name):
    result = run.run_workload(nagdyn_cli, WORKLOADS[name], run.DEFAULT_SEED, 0.0, True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(nagdyn_cli):
    result = run.run_traced(nagdyn_cli, run.DEFAULT_SEED, True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, m in result["metrics"].items():
        if name.endswith((".calls", ".steps", ".rows", ".points")):
            assert m["value"] > 0, name
    # the wrappers are gone once the traced round ends
    import nagdyn.cli
    import nagdyn.spectral

    assert not hasattr(nagdyn.cli.main, "__wrapped__")
    assert not hasattr(nagdyn.spectral.eigendecompose, "__wrapped__")
    with open(os.path.join(run.OUT, "trace.jsonl"), encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert {"id", "parent", "name", "start_ns", "end_ns", "workload"} <= set(first)


def _run_op(cli, op):
    res = run.call(cli, op.argv)
    assert res.code == 0, res.error
    return res


def test_classify_check_rejects_a_wrong_verdict_or_eigenvalue(nagdyn_cli):
    cli = nagdyn_cli
    work = os.path.join(run.OUT, "selftest_classify")
    op = WORKLOADS["classify"].build(np.random.default_rng(3), work, True)[1]
    res = _run_op(cli, op)
    assert op.check(op, res.code, res.stdout) == []
    with open(op.artifacts[0], encoding="utf-8") as fh:
        report = json.load(fh)
    report["eigenvalues"][0]["re"] += 1e-3
    with open(op.artifacts[0], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert op.check(op, res.code, res.stdout)
    report["eigenvalues"][0]["re"] -= 1e-3
    report["nagd_verdict"] = "StableConvergent" if report["nagd_verdict"] != "StableConvergent" else "UnstableComplex"
    with open(op.artifacts[0], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert op.check(op, res.code, res.stdout)


def test_sweep_check_rejects_a_wrong_class_or_rate(nagdyn_cli):
    cli = nagdyn_cli
    work = os.path.join(run.OUT, "selftest_sweep")
    op = WORKLOADS["sweep"].build(np.random.default_rng(3), work, True)[-1]
    res = _run_op(cli, op)
    assert op.check(op, res.code, res.stdout) == []
    with open(op.artifacts[0], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(",StrictlyComplex"))
    good = lines[row]
    for bad in (good.replace("StrictlyComplex", "NegativeReal"), good.replace(",nan,", ",0.5,")):
        lines[row] = bad
        with open(op.artifacts[0], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert op.check(op, res.code, res.stdout), bad


def test_expected_verdicts_follow_the_four_regions():
    assert checks.expected_verdicts([1.0 + 0j, 2.0 + 0j], False) == ("StableConvergent", "ExponentiallyStable")
    assert checks.expected_verdicts([0j, 2.0 + 0j], False) == ("StableToNullSpace", "MarginallyStable")
    assert checks.expected_verdicts([-1.0 + 0j, 2.0 + 0j], False) == ("UnstableNegativeReal", "Unstable")
    assert checks.expected_verdicts([6 + 1.5j, 6 - 1.5j], False) == ("UnstableComplex", "ExponentiallyStable")
    assert checks.expected_verdicts([1.0 + 0j, 1.0 + 0j], True) == ("IndeterminateJordan", "ExponentiallyStable")
    assert math.isclose(checks.growth_rate(6 + 1.5j), 0.3041, rel_tol=1e-3)
