"""End-to-end CLI contract: configs, artifacts, exit codes, determinism."""

import filecmp
import json
import math
import os

import numpy as np
import pytest

from nagdyn import cli, experiments

FIG1 = {
    "label": "potential",
    "source": {"matrix": [[0.4, 0.2], [0.2, 0.8]]},
    "initial": {"q0": [0.5, 0.3]},
    "integrator": {"t0": 1.0, "t_end": 100.0, "dt": 0.01},
}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --------------------------------------------------------------------------
# configuration grammar


def test_builtin_configs_round_trip():
    for fig in experiments.FIGURES.values():
        for cfg in fig["configs"]:
            d = experiments.config_to_dict(cfg)
            reparsed = experiments.parse_config(json.loads(json.dumps(d)))
            assert experiments.config_to_dict(reparsed) == d


def test_config_game_source(tmp_path):
    payload = {
        "source": {
            "game": {
                "payoffs": [[[0.2, 0.1], [0.1, 0.5]], [[0.3, 0.1], [0.1, 0.4]]],
            }
        },
        "initial": {"q0": [1.0, 0.0]},
    }
    cfg = experiments.load_config(_write_config(tmp_path, payload))
    assert np.array_equal(cfg.system.matrix, [[0.4, 0.2], [0.2, 0.8]])


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda p: p["integrator"].update(dt="fast"), "integrator.dt"),
        (lambda p: p["initial"].update(q0=[1.0, 2.0, 3.0]), "initial.q0"),
        (lambda p: p.update(diagnostics=["spectra"]), "diagnostics"),
        (lambda p: p["source"].pop("matrix"), "source"),
        (lambda p: p.update(extras=1), "top level"),
    ],
)
def test_config_errors_name_the_key(tmp_path, capsys, mutate, key):
    payload = json.loads(json.dumps(FIG1))
    payload.setdefault("diagnostics", [])
    mutate(payload)
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


# --------------------------------------------------------------------------
# simulate


def test_simulate_artifacts(tmp_path):
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, FIG1), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    header, rows = _read_csv(tmp_path / "potential.csv")
    assert header == ["t", "q_1", "q_2", "v_1", "v_2", "norm_q"]
    assert len(rows) == 9901
    assert float(rows[0][0]) == 1.0
    for row in rows[:: len(rows) // 7]:
        q1, q2, nq = float(row[1]), float(row[2]), float(row[5])
        assert nq == pytest.approx(math.hypot(q1, q2), rel=1e-12)
    summary = json.loads((tmp_path / "potential.json").read_text())
    assert summary["saturated"] is False
    assert summary["spectrum"]["nagd_verdict"] == "StableConvergent"


def test_simulate_is_deterministic(tmp_path):
    cfgp = _write_config(tmp_path, FIG1)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert cli.main(["simulate", "--config", cfgp, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfgp, "--out", str(b)]) == 0
    assert filecmp.cmp(a / "potential.csv", b / "potential.csv", shallow=False)
    assert filecmp.cmp(a / "potential.json", b / "potential.json", shallow=False)


def test_simulate_stride(tmp_path):
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, FIG1), "--out", str(tmp_path), "--stride", "10"])
    assert rc == cli.EXIT_OK
    _, rows = _read_csv(tmp_path / "potential.csv")
    assert len(rows) == 991


def test_simulate_saturation_exit_code(tmp_path):
    # x'' + (3/t) x' - 25 x = 0 grows like e^{5t}: past 1e150 before t = 100
    payload = {
        "label": "runaway",
        "source": {"matrix": [[-25.0]]},
        "initial": {"q0": [1.0]},
        "integrator": {"t0": 1.0, "t_end": 100.0, "dt": 0.01},
    }
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_SATURATED
    summary = json.loads((tmp_path / "runaway.json").read_text())
    assert summary["saturated"] is True
    _, rows = _read_csv(tmp_path / "runaway.csv")
    assert float(rows[-1][0]) < 100.0  # truncated before the horizon


def test_diagnostic_columns(tmp_path):
    payload = json.loads(json.dumps(FIG1))
    payload["integrator"]["t_end"] = 30.0
    payload["diagnostics"] = ["lyapunov", "rates"]
    cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    header, _ = _read_csv(tmp_path / "potential.csv")
    assert header == ["t", "q_1", "q_2", "v_1", "v_2", "norm_q", "V", "Vdot"]

    rot = {
        "label": "rot",
        "source": {"matrix": [[6.0, 1.5], [-1.5, 6.0]]},
        "initial": {"q0": [1.0, 0.0]},
        "integrator": {"t0": 1.0, "t_end": 30.0, "dt": 0.01},
        "diagnostics": ["chetaev"],
    }
    cli.main(["simulate", "--config", _write_config(tmp_path, rot, "rot.json"), "--out", str(tmp_path)])
    header, _ = _read_csv(tmp_path / "rot.csv")
    assert header[-1] == "rho"

    null = {
        "label": "null",
        "source": {"matrix": [[0.25, 0.25], [0.25, 0.25]]},
        "initial": {"q0": [0.5, -0.3], "v0": [0.1, 0.1]},
        "integrator": {"t0": 1.0, "t_end": 30.0, "dt": 0.01},
        "diagnostics": ["nullspace"],
    }
    cli.main(["simulate", "--config", _write_config(tmp_path, null, "null.json"), "--out", str(tmp_path)])
    header, _ = _read_csv(tmp_path / "null.csv")
    assert header[-1] == "dist_null"


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("NAGD_OUT_DIR", str(tmp_path))
    payload = json.loads(json.dumps(FIG1))
    payload["integrator"]["t_end"] = 5.0
    assert cli.main(["simulate", "--config", _write_config(tmp_path, payload)]) == 0
    assert (tmp_path / "potential.csv").exists()


# --------------------------------------------------------------------------
# classify


def test_classify_output(tmp_path, capsys):
    rot = {
        "source": {"matrix": [[6.0, 1.5], [-1.5, 6.0]]},
        "initial": {"q0": [1.0, 0.0]},
    }
    rc = cli.main(["classify", "--config", _write_config(tmp_path, rot), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "UnstableComplex" in out
    assert "growth rate = 0.3039" in out
    assert "first-order flow : ExponentiallyStable (rate = 6)" in out
    report = json.loads(next(tmp_path.glob("*_classify.json")).read_text())
    assert report["nagd_verdict"] == "UnstableComplex"
    assert report["first_order_rate"] == pytest.approx(6.0, abs=1e-9)


def test_classify_jordan_warning(tmp_path, capsys):
    nilpotent = {
        "source": {"matrix": [[0.0, 0.0], [1.0, 0.0]]},
        "initial": {"q0": [1.0, 0.0]},
    }
    rc = cli.main(["classify", "--config", _write_config(tmp_path, nilpotent)])
    assert rc == cli.EXIT_OK
    assert "IndeterminateJordan" in capsys.readouterr().out


def test_classify_overflowing_matrix_is_config_error(tmp_path, capsys):
    # eigenvalues 1e308 (1 -/+ i): the Frobenius norm overflows, so the
    # input is refused rather than every eigenvalue snapping to zero
    huge = {
        "source": {"matrix": [[1e308, 1e308], [-1e308, 1e308]]},
        "initial": {"q0": [1.0, 0.0]},
    }
    rc = cli.main(["classify", "--config", _write_config(tmp_path, huge)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "source" in captured.err and "norm overflows" in captured.err
    assert "flow" not in captured.out
    assert "lambda" not in captured.out


# --------------------------------------------------------------------------
# sweep


def test_sweep_rows_and_predictions(tmp_path):
    rc = cli.main(["sweep", "--grid=-0.5:1:4,0:1:2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == ["re", "im", "predicted_rate", "measured_rate", "class"]
    assert len(rows) == 8
    table = {(float(r[0]), float(r[1])): (r[4], float(r[2])) for r in rows}
    assert table[(1.0, 0.0)][0] == "PositiveReal"
    assert table[(1.0, 0.0)][1] == -1.5
    assert table[(0.0, 1.0)][0] == "StrictlyComplex"
    assert table[(0.0, 1.0)][1] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert table[(-0.5, 0.0)][0] == "NegativeReal"
    assert table[(-0.5, 0.0)][1] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert table[(0.0, 0.0)][0] == "Zero"


def test_sweep_measured_rates(tmp_path):
    rc = cli.main(["sweep", "--grid", "0:1:2,0:1:2", "--out", str(tmp_path), "--measure", "--jobs", "2"])
    assert rc == cli.EXIT_OK
    _, rows = _read_csv(tmp_path / "sweep.csv")
    for r in rows:
        predicted, measured = float(r[2]), float(r[3])
        assert measured == pytest.approx(predicted, abs=max(0.1 * abs(predicted), 0.01))


def test_sweep_grid_too_large(tmp_path, capsys):
    rc = cli.main(["sweep", "--grid", "0:1:2000,0:1:2000", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "cap" in capsys.readouterr().err


def test_sweep_bad_grid(tmp_path):
    assert cli.main(["sweep", "--grid", "0:1,0:1:2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


# --------------------------------------------------------------------------
# reproduce


def test_reproduce_fig2(tmp_path, capsys):
    rc = cli.main(["reproduce", "--figure", "fig2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "checks: pass" in out
    summary = json.loads((tmp_path / "fig2_summary.json").read_text())
    checks = summary["checks"]
    assert checks["nagd_rate"] == pytest.approx(0.304, abs=0.031)
    assert checks["first_order_rate"] == pytest.approx(-6.0, abs=0.01)
    assert summary["pass"] is True
    assert (tmp_path / "fig2_rotational.csv").exists()
    assert (tmp_path / "fig2_rotational_first_order.csv").exists()


def test_reproduce_fig3(tmp_path):
    assert cli.main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == cli.EXIT_OK
    checks = json.loads((tmp_path / "fig3_summary.json").read_text())["checks"]
    assert checks["x1_envelope_slope"] == pytest.approx(-1.5, abs=0.2)
    assert checks["x2_rate"] == pytest.approx(0.7071, rel=0.05)


def test_reproduce_fig5_spectra(tmp_path):
    assert cli.main(["reproduce", "--figure", "fig5", "--out", str(tmp_path), "--jobs", "2"]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "fig5_summary.json").read_text())
    assert summary["pass"] is True
    three = summary["checks"]["three_player_eigenvalues"]
    assert [round(e, 2) for e in three] == [0.43, 0.62, 1.35]
    four = summary["checks"]["four_player_eigenvalues"]
    assert [round(e, 2) for e in four] == [0.44, 0.58, 0.87, 1.41]


# --------------------------------------------------------------------------
# check


def test_check_passes(tmp_path, capsys):
    rc = cli.main(["check", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["failures"] == []
    names = {c["name"] for c in report["checks"]}
    assert {"bessel_wronskian_jy", "rk4_order_factor", "lyapunov_skew_not_applicable"} <= names


def test_check_degraded_dt_names_failures(tmp_path, capsys):
    rc = cli.main(["check", "--dt", "0.5", "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVARIANT
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert "rk4_order_factor" in report["failures"]
    assert "modal_closed_form_agreement" in report["failures"]
    # step-free identities survive the coarse grid
    assert "bessel_wronskian_jy" not in report["failures"]
    assert "translation_invariance" not in report["failures"]
    out = capsys.readouterr().out
    assert "FAIL modal_closed_form_agreement" in out


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "1000"])
def test_check_bad_dt_is_config_error(tmp_path, capsys, dt):
    rc = cli.main(["check", "--dt", dt, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --dt" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "check_report.json").exists()
