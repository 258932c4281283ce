"""End-to-end CLI contract: configs, artifacts, exit codes, determinism."""

import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nagdyn import _csvformat, analysis, cli, dynamics, experiments, game, special, spectral
from nagdyn.errors import ConfigError, OutputError, OverflowSaturation, SingularBasis

FIG1 = {
    "label": "potential",
    "source": {"matrix": [[0.4, 0.2], [0.2, 0.8]]},
    "initial": {"q0": [0.5, 0.3]},
    "integrator": {"t0": 1.0, "t_end": 100.0, "dt": 0.01},
}


#: Two players' payoffs whose pseudo-gradient is FIG1's matrix.
PAYOFFS = [[[0.2, 0.1], [0.1, 0.5]], [[0.3, 0.1], [0.1, 0.4]]]


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


def test_config_game_offsets():
    # player i's offset enters the field through its own coordinate only
    payoffs = [[[0.2, 0.1], [0.1, 0.5]], [[0.3, 0.1], [0.1, 0.4]]]
    payload = {
        "source": {"game": {"payoffs": payoffs, "offsets": [[0.3, -1.0], [2.0, -0.7]]}},
        "initial": {"q0": [1.0, 0.0]},
    }
    cfg = experiments.parse_config(payload)
    assert np.array_equal(cfg.system.matrix, [[0.4, 0.2], [0.2, 0.8]])
    assert np.array_equal(cfg.system.offset, [0.3, -0.7])
    for offsets, key in (([[0.3, -1.0]], "source.game.offsets:"), ([[0.3, -1.0], [2.0]], "source.game.offsets[1]:")):
        payload["source"]["game"]["offsets"] = offsets
        with pytest.raises(ConfigError, match=re.escape(key)):
            experiments.parse_config(payload)


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda p: p["integrator"].update(dt="fast"), "integrator.dt"),
        (lambda p: p["initial"].update(q0=[1.0, 2.0, 3.0]), "initial.q0"),
        (lambda p: p.update(diagnostics=["spectra"]), "diagnostics"),
        (lambda p: p["source"].pop("matrix"), "source"),
        (lambda p: p.update(extras=1), "top level"),
        (lambda p: p.pop("initial"), "initial: required"),
        (lambda p: p.update(integrator=[0.01]), "integrator: expected an object"),
        (lambda p: p.update(diagnostics="rates"), "diagnostics: expected a list"),
        (lambda p: p["source"].update(matrix=[[0.4, 0.2], [0.2]]), "source.matrix: expected a numeric"),
        (lambda p: p["source"]["matrix"][0].__setitem__(0, math.nan), "source.matrix: entries must be finite"),
        (lambda p: p.update(source={"game": {"offsets": [[0.0, 0.0]] * 2}}), "source.game: expected an object"),
        (lambda p: p.update(source={"game": {"payoffs": []}}), "source.game.payoffs: expected a nonempty list"),
        (lambda p: p.update(source={"game": {"payoffs": [[[0.2, 0.1], [0.0, 0.5]], PAYOFFS[1]]}}),
         "source.game: payoffs[0] must be symmetric"),
    ],
)
def test_config_errors_name_the_key(tmp_path, capsys, mutate, key):
    payload = json.loads(json.dumps(FIG1))
    payload.setdefault("diagnostics", [])
    mutate(payload)
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p.update(output={"dir": "results"}), "top level: unknown keys ['output']"),
        (lambda p: p["integrator"].update(record_stride=True), "integrator.record_stride: expected an integer"),
        # numbers that do not fit a double, and a stride past the step bound
        (lambda p: p["integrator"].update(t_end=10**400), "integrator.t_end: int too large to convert to float"),
        (lambda p: p["source"]["matrix"][0].__setitem__(0, 10**400), "source.matrix: int too large to convert to float"),
        (lambda p: p["integrator"].update(record_stride=10**30), "integrator: record_stride must be an integer from 1 to 1e8"),
        # numpy would read a JSON boolean as 0 or 1
        (lambda p: p["source"]["matrix"][0].__setitem__(0, True), "source.matrix: expected numbers, not booleans"),
        (lambda p: p["initial"].update(q0=[0.5, False]), "initial.q0: expected numbers, not booleans"),
        # a misspelt key under source, source.game or initial, and a matrix key beside a game
        (lambda p: p["source"].update(ofset=[1.0, 1.0]), "source: unknown keys ['ofset']"),
        (lambda p: p.update(source={"game": {"payoffs": PAYOFFS, "ofsets": [[1.0, 0.0]] * 2}}), "source.game: unknown keys ['ofsets']"),
        (lambda p: p.update(source={"game": {"payoffs": PAYOFFS}, "offset": [1.0, 1.0]}), "source: unknown keys ['offset']"),
        (lambda p: p["initial"].update(vo=[0.0, 0.0]), "initial: unknown keys ['vo']"),
    ],
    ids=[
        "output", "boolean_stride", "overflowing_t_end", "overflowing_matrix_entry", "huge_stride",
        "boolean_matrix_entry", "boolean_q0_entry", "source_key", "game_key", "offset_beside_game", "initial_key",
    ],
)
def test_config_refuses_ignored_output_and_boolean_stride(tmp_path, capsys, mutate, message):
    payload = json.loads(json.dumps(FIG1))
    mutate(payload)
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("label", ["../../x", "a/b", "", ".", "..", "a\0b", 5, None, "a\ud800"], ids=repr)
def test_config_label_must_be_a_file_name_stem(tmp_path, capsys, label):
    # the label names the artifacts, so it must not lead outside --out
    payload = dict(FIG1, label=label, integrator={"t0": 1.0, "t_end": 2.0, "dt": 0.01})
    config = _write_config(tmp_path, payload)
    out = tmp_path / "out" / "deep"
    for command in ("simulate", "classify"):
        assert cli.main([command, "--config", config, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "label" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_config_refuses_non_finite_damping_exponent(tmp_path, capsys, value):
    # json writes and reads NaN and Infinity; a run with either would be a
    # numerical artefact reported as saturated dynamics
    payload = json.loads(json.dumps(FIG1))
    payload["integrator"]["damping_exponent"] = value
    config = _write_config(tmp_path, payload)
    rc = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "integrator: damping_exponent must be finite" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


@pytest.mark.parametrize("value", [-1.0, -1e-300, 0.0])
def test_config_refuses_a_damping_exponent_that_is_not_positive(tmp_path, capsys, value):
    # the verdicts assume damping: at r = -1 diag(1, 2) would read
    # StableConvergent while its |q| grows like t^0.5
    payload = json.loads(json.dumps(FIG1))
    payload["integrator"]["damping_exponent"] = value
    config = _write_config(tmp_path, payload)
    for command in ("simulate", "classify"):
        rc = cli.main([command, "--config", config, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "integrator: damping_exponent must be finite and positive" in err
        assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "top level: expected an object"), (None, "cannot read config file")],
    ids=["json_list", "missing_file"],
)
def test_config_file_that_holds_no_config_object(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["classify", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


def test_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps(FIG1).encode()[:-1] + b', "diagnostics": ["\xff"]}', "config is not valid UTF-8"),
        (b"[" * 200_000 + b"]" * 200_000, "config nests too deeply"),
    ],
    ids=["byte_0xff", "deep_nesting"],
)
def test_config_bytes_that_json_cannot_read_are_config_errors(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    for command in ("simulate", "classify"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


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


@pytest.mark.parametrize("stride", ["0", "-3", str(10**8 + 1), str(10**30)])
def test_simulate_refuses_a_stride_out_of_range(tmp_path, capsys, stride):
    config = _write_config(tmp_path, FIG1)
    rc = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out"), "--stride", stride])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: --stride {stride}: record_stride must be an integer from 1 to 1e8\n"
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


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


def test_simulate_refuses_a_step_past_the_rk4_stability_limit(tmp_path, capsys):
    # the spectrum calls diag(1e6, 0.5) StableConvergent, but at dt = 0.01
    # h sqrt(1e6) = 10 > 2 sqrt(2): RK4 blew the stiff mode up to a
    # "saturated" record and exit 3
    payload = {
        "label": "stiff",
        "source": {"matrix": [[1e6, 0.0], [0.0, 0.5]]},
        "initial": {"q0": [1.0, 1.0]},
        "integrator": {"t0": 1.0, "t_end": 20.0, "dt": 0.01},
    }
    config = _write_config(tmp_path, payload)
    rc = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.dt: 0.01 ") and err.count("\n") == 1
    assert "choose dt <= 0.0028" in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]
    assert cli.main(["classify", "--config", config]) == cli.EXIT_OK
    assert "StableConvergent" in capsys.readouterr().out
    # the suggested step runs, and the record does not saturate
    payload["integrator"]["dt"] = 0.0028
    config = _write_config(tmp_path, payload)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "out" / "stiff.json").read_text())
    assert summary["saturated"] is False and summary["notes"] == []


def _kick(t0, t_end=2.0, dt=0.01):
    """A StableToNullSpace run kicked along the null space, started at ``t0``."""
    return {
        "label": "kick",
        "source": {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
        "initial": {"q0": [0.0, 1.0], "v0": [1.0, 0.0]},
        "integrator": {"t0": t0, "t_end": t_end, "dt": dt},
    }


def _kick_within_bound(tmp_path, payload):
    """Simulate ``payload`` into ``tmp_path/out`` and check |q| against the a-priori bound."""
    config = _write_config(tmp_path, payload)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    header, rows = _read_csv(tmp_path / "out" / "kick.csv")
    spectrum = spectral.eigendecompose(np.array(payload["source"]["matrix"]))
    bound = spectral.boundedness_bound(spectrum, payload["integrator"]["t0"], 1.0, 1.0)
    assert 1.0 <= max(float(row[header.index("norm_q")]) for row in rows) <= bound


@pytest.mark.parametrize("t0, dt_max", [(1e-6, "9.2e-07"), (1e-4, "9.2e-05")])
def test_simulate_refuses_a_first_step_past_the_rk4_damping_limit(tmp_path, capsys, t0, dt_max):
    # h r / t0 = 3e4 and 300 are past RK4's limit 2.785 on the damping
    # axis: integrated, these runs broke the a-priori bound 2 with
    # sup |q| = 349.8 and 3.48, exited 0 and noted nothing
    config = _write_config(tmp_path, _kick(t0))
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.t0: ") and err.count("\n") == 1
    assert err.endswith(f"choose integrator.dt <= {dt_max} or integrator.t0 >= 0.011\n")
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]
    # the suggested step runs, over 10 000 steps, and so does the suggested start
    _kick_within_bound(tmp_path, _kick(t0, t0 + 1e4 * float(dt_max), float(dt_max)))
    _kick_within_bound(tmp_path, _kick(0.011))


def test_simulate_refuses_a_first_step_whose_damping_overflows(tmp_path, capsys):
    # r / t0 = 1e600 reads as inf: the passing dt underflows to 0 and the
    # passing t0 overflows, and the message formats them without rounding
    payload = _kick(1e-300)
    payload["integrator"]["damping_exponent"] = 1e300
    config = _write_config(tmp_path, payload)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator.t0: ") and err.count("\n") == 1
    assert err.endswith("choose integrator.dt <= 0 or integrator.t0 >= inf\n")


@pytest.mark.parametrize("t0", [0.0108, 0.011])
def test_simulate_runs_a_first_step_inside_the_rk4_damping_limit(tmp_path, t0):
    # the limit at dt = 0.01, r = 3 is t0 = 0.03 / 2.785 = 0.01077
    _kick_within_bound(tmp_path, _kick(t0))


@pytest.mark.parametrize("lam, noted", [(1e4, True), (900.0, False)], ids=["1e4", "900"])
def test_rates_note_rk4_damping_of_a_stiff_positive_mode(tmp_path, lam, noted):
    # h sqrt(1e4) = 1 is within RK4's stability limit, but RK4 scales the
    # mode by (1 - y^6/72 + y^8/576)^(1/2) a step: 24.4 in log amplitude
    # over the 4 000 steps of [20, 60], which the fit reports as decay
    payload = {
        "label": "stiff",
        "source": {"matrix": [[lam, 0.0], [0.0, 1e-4]]},
        "initial": {"q0": [1.0, 0.0]},
        "integrator": {"t0": 1.0, "t_end": 60.0, "dt": 0.01},
        "diagnostics": ["rates"],
    }
    assert cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "stiff.json").read_text())
    assert summary["spectrum"]["nagd_verdict"] == "StableConvergent"
    assert summary["rate_fit"]["predicted"] == -1.5
    if noted:
        assert summary["rate_fit"]["slope"] < -20.0
        [note] = summary["notes"]
        assert note.startswith("rates: RK4 itself damps the PositiveReal eigenvalue 10000 by 24.45 ")
        assert "[20, 60]" in note
    else:
        assert summary["notes"] == []


def test_simulate_notes_diagnostics_that_do_not_apply(tmp_path):
    payload = dict(FIG1, diagnostics=["chetaev", "nullspace", "energy"])
    assert cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "potential.json").read_text())
    assert summary["notes"] == [
        "chetaev: spectrum has no unstable eigenvalue",
        "nullspace: matrix has full rank",
        "energy: spectrum has no strictly complex eigenvalue",
    ]
    header, _ = _read_csv(tmp_path / "potential.csv")
    assert header == ["t", "q_1", "q_2", "v_1", "v_2", "norm_q"]


def test_lyapunov_note_names_the_failed_hypothesis(tmp_path):
    for label, matrix, why in (
        ("skew", [[0.0, 1.0], [-1.0, 0.0]], "not symmetric"),
        ("negdef", [[-0.5, 0.0], [0.0, -0.5]], "not positive semidefinite"),
    ):
        payload = {
            "label": label,
            "source": {"matrix": matrix},
            "initial": {"q0": [1.0, 0.0]},
            "integrator": {"t0": 1.0, "t_end": 5.0, "dt": 0.01},
            "diagnostics": ["lyapunov"],
        }
        cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
        header, _ = _read_csv(tmp_path / f"{label}.csv")
        assert "V" not in header
        notes = json.loads((tmp_path / f"{label}.json").read_text())["notes"]
        assert notes == [f"lyapunov: matrix is {why}; certificate not applicable"]


def test_rate_fit_note_on_a_record_that_ends_early(tmp_path):
    # the mode at lam = -160^2 grows like e^{160 t} and passes 1e150 near
    # t = 3.2, long before the fit window opens at 20
    payload = {
        "label": "escape",
        "source": {"matrix": [[1.0, 0.0], [0.0, -25600.0]]},
        "initial": {"q0": [1.0, 1.0]},
        "integrator": {"t0": 1.0, "t_end": 100.0, "dt": 0.01},
        "diagnostics": ["rates"],
    }
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_SATURATED
    summary = json.loads((tmp_path / "escape.json").read_text())
    assert summary["rows"] == 221
    assert "rate_fit" not in summary
    assert summary["notes"] == [
        "rates: fit unavailable (the record ends at t = 3.2, before the fit window starts at 20)"
    ]


def test_fit_notes_on_a_record_that_ends_before_the_exponential_window(tmp_path):
    # both exponential fits clamp the window to a 10 s record the same way
    payload = {
        "label": "rotational",
        "source": {"matrix": [[6.0, 1.5], [-1.5, 6.0]]},
        "initial": {"q0": [1.0, 0.0]},
        "integrator": {"t0": 1.0, "t_end": 10.0, "dt": 0.01},
        "diagnostics": ["chetaev", "rates"],
    }
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    summary = json.loads((tmp_path / "rotational.json").read_text())
    assert summary["notes"] == [
        "chetaev: complex projection not fitted (the record ends at t = 10, before the fit window starts at 20)",
        "rates: fit unavailable (the record ends at t = 10, before the fit window starts at 20)",
    ]


@pytest.mark.parametrize(
    "matrix, t0, diagnostics",
    [
        ([[0.4, 0.2], [0.2, 0.8]], 1.0, ["rates"]),
        ([[6.0, 1.5], [-1.5, 6.0]], 1.0, ["chetaev", "rates"]),
        ([[0.4, 0.2], [0.2, 0.8]], 25.0, ["rates"]),
    ],
    ids=["stable", "rotational", "late-start"],
)
def test_every_fit_runs_from_t20_to_the_end_of_the_record(tmp_path, matrix, t0, diagnostics):
    # decaying and growing modes share one window, which runs to the end of the record
    payload = {
        "label": "window",
        "source": {"matrix": matrix},
        "initial": {"q0": [1.0, 0.0]},
        "integrator": {"t0": t0, "t_end": 100.0, "dt": 0.01},
        "diagnostics": diagnostics,
    }
    assert cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "window.json").read_text())
    start = max(20.0, t0)
    samples = int(round((100.0 - start) / 0.01)) + 1
    fits = [summary[key] for key in ("rate_fit", "chetaev_complex") if key in summary]
    assert len(fits) == len(diagnostics)
    for fit in fits:
        assert fit["window"] == [start, 100.0]
        # maxima of the oscillating envelope, or every sample of a growing one
        assert 5 <= fit["n_points"] <= samples
    if "chetaev" in diagnostics:
        assert summary["rate_fit"]["n_points"] == summary["chetaev_complex"]["n_points"] == samples


@pytest.mark.parametrize(
    "matrix, diagnostic, note",
    [
        ([[-0.5, 0.0], [0.0, 1.0]], "chetaev",
         "chetaev: negative certificate not evaluated (the growth ratio of W needs at least 2 samples)"),
        # the failed hypothesis is named whatever the record length
        ([[-0.5, 0.0], [0.0, 1.0]], "lyapunov",
         "lyapunov: matrix is not positive semidefinite; certificate not applicable"),
        ([[0.5, 0.0], [0.0, 1.0]], "lyapunov",
         "lyapunov: certificate not evaluated (five-point differentiation needs at least 5 samples)"),
        ([[6.0, 1.5], [-1.5, 6.0]], "energy",
         "energy: identity not evaluated (five-point differentiation needs at least 5 samples)"),
    ],
    ids=["chetaev", "lyapunov", "lyapunov-psd", "energy"],
)
def test_diagnostic_note_on_a_one_row_record(tmp_path, matrix, diagnostic, note):
    # 50 steps at stride 1000 record only the initial sample
    payload = {
        "label": "short",
        "source": {"matrix": matrix},
        "initial": {"q0": [1.0, 1.0]},
        "integrator": {"t_end": 1.5, "record_stride": 1000},
        "diagnostics": [diagnostic],
    }
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    summary = json.loads((tmp_path / "short.json").read_text())
    assert summary["rows"] == 1
    assert summary["notes"] == [note]
    header, rows = _read_csv(tmp_path / "short.csv")
    assert header == ["t", "q_1", "q_2", "v_1", "v_2", "norm_q"] and len(rows) == 1


def test_modal_diagnostic_projects_the_initial_data(tmp_path):
    # y0 = w^* q0 and ydot0 = w^* v0 for each left eigenvector w, and the
    # right eigenvectors weighted by them rebuild q0 and v0
    matrix, q0, v0 = [[6.0, 1.5], [-1.5, 6.0]], [1.0, 0.5], [0.2, -0.3]
    payload = {
        "label": "modal",
        "source": {"matrix": matrix},
        "initial": {"q0": q0, "v0": v0},
        "integrator": {"t_end": 2.0},
        "diagnostics": ["modal"],
    }
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    modes = json.loads((tmp_path / "modal.json").read_text())["modal"]
    spectrum = spectral.eigendecompose(np.array(matrix))
    assert len(modes) == 2
    y0 = np.array([complex(m["y0"]["re"], m["y0"]["im"]) for m in modes])
    ydot0 = np.array([complex(m["ydot0"]["re"], m["ydot0"]["im"]) for m in modes])
    for k, (mode, lam, w) in enumerate(zip(modes, spectrum.eigenvalues, spectrum.left_vectors)):
        assert complex(mode["eigenvalue"]["re"], mode["eigenvalue"]["im"]) == lam
        assert mode["class"] == "StrictlyComplex"
        assert y0[k] == np.conj(w) @ q0 and ydot0[k] == np.conj(w) @ v0
    assert np.allclose(spectrum.right_vectors @ y0, q0, rtol=0.0, atol=1e-12)
    assert np.allclose(spectrum.right_vectors @ ydot0, v0, rtol=0.0, atol=1e-12)
    # the modal diagnostic adds no CSV column
    assert _read_csv(tmp_path / "modal.csv")[0] == ["t", "q_1", "q_2", "v_1", "v_2", "norm_q"]


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
# the damping exponent r of the integrator


def _simulate_at_r(tmp_path, matrix, r, diagnostics, t_end=100.0):
    payload = {
        "label": "damped",
        "source": {"matrix": matrix},
        "initial": {"q0": [1.0, 1.0]},
        "integrator": {"t0": 1.0, "t_end": t_end, "dt": 0.01, "damping_exponent": r},
        "diagnostics": diagnostics,
    }
    rc = cli.main(["simulate", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    header, _ = _read_csv(tmp_path / "damped.csv")
    return rc, header, json.loads((tmp_path / "damped.json").read_text())


def test_rates_predict_and_measure_the_envelope_at_r(tmp_path):
    # |q| ~ t^{-r/2}: the r = 3 constant -1.5 was predicted at every r
    rc, _, summary = _simulate_at_r(tmp_path, [[1.0, 0.0], [0.0, 2.0]], 5.0, ["rates"])
    assert rc == cli.EXIT_OK
    fit = summary["rate_fit"]
    assert fit["predicted"] == -2.5
    assert abs(fit["slope"] - fit["predicted"]) <= 0.2


def test_certificates_derived_at_r3_refuse_another_r_by_name(tmp_path):
    rc, header, summary = _simulate_at_r(tmp_path, [[1.0, 0.0], [0.0, -0.5]], 5.0, ["lyapunov", "chetaev"], 30.0)
    assert rc == cli.EXIT_OK
    assert "V" not in header and "W" not in header
    assert summary["notes"] == [
        f"{name}: derived for integrator.damping_exponent 3 only, not 5.0" for name in ("lyapunov", "chetaev")
    ]


def test_chetaev_complex_detrends_the_envelope_at_r(tmp_path):
    rc, header, summary = _simulate_at_r(tmp_path, [[6.0, 1.5], [-1.5, 6.0]], 5.0, ["chetaev"], 60.0)
    assert rc == cli.EXIT_OK and "rho" in header and summary["notes"] == []
    entry = summary["chetaev_complex"]
    assert entry["beta_measured"] == pytest.approx(entry["beta_predicted"], rel=0.05)


def test_low_damping_is_a_summary_note_not_a_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, summary = _simulate_at_r(tmp_path, [[1.0, 0.0], [0.0, 2.0]], 0.5, [], 10.0)
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert summary["notes"] == ["integrator.damping_exponent: 0.5 <= 1 is outside the guaranteed-convergence regime"]


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


def test_classify_at_r_one_has_no_bound_with_a_zero_mode(tmp_path, capsys):
    # eigenvalues 0 and 2: at r = 1 the zero mode drifts, so there is no
    # bound constant (max(t0/2, 2^-1/2) = 0.7071 was reported for r = 3)
    payload = {
        "label": "drift",
        "source": {"matrix": [[1.0, 1.0], [1.0, 1.0]]},
        "initial": {"q0": [1.0, 0.0]},
        "integrator": {"damping_exponent": 1.0},
    }
    rc = cli.main(["classify", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "StableToNullSpace (envelope ~ t^-0.5)" in out
    assert "bound constant" not in out
    assert json.loads((tmp_path / "drift_classify.json").read_text())["bound_constant"] is None


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
    rc = cli.main(["sweep", "--grid", "0:1:2,0:1:2", "--out", str(tmp_path), "--measure"])
    assert rc == cli.EXIT_OK
    _, rows = _read_csv(tmp_path / "sweep.csv")
    for r in rows:
        predicted, measured = float(r[2]), float(r[3])
        assert measured == pytest.approx(predicted, abs=max(0.1 * abs(predicted), 0.01))


def test_sweep_negative_grid_as_separate_argument(tmp_path):
    rc = cli.main(["sweep", "--grid", "-2:6:8,-3:3:8", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 64
    assert (float(rows[0][0]), float(rows[0][1])) == (-2.0, -3.0)
    joined = tmp_path / "joined"
    assert cli.main(["sweep", "--grid=-2:6:8,-3:3:8", "--out", str(joined)]) == cli.EXIT_OK
    assert filecmp.cmp(tmp_path / "sweep.csv", joined / "sweep.csv", shallow=False)


def test_sweep_csv_matches_per_cell_format(tmp_path, monkeypatch):
    # every cell is format(x, ".17g") of the classifier's own value, also
    # with 7-row chunks (passes of 7 values) that straddle the blocks of
    # equal re, and with a measured column, coded over the folded points
    # like the rest
    for grid, measure, chunk, values in (
        ("-3:5:17,-2:2:9", False, _csvformat._CHUNK_ROWS, _csvformat._PASS_VALUES),
        ("-3:5:17,-2:2:9", False, 7, 7),
        ("-1:1:3,-1:1:3", True, 7, 7),
    ):
        monkeypatch.setattr(_csvformat, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(_csvformat, "_PASS_VALUES", values)
        out = tmp_path / f"{measure}_{chunk}"
        rc = cli.main(["sweep", f"--grid={grid}", "--out", str(out)] + ["--measure"] * measure)
        assert rc == cli.EXIT_OK
        re_vals, im_vals = experiments.parse_grid(grid)
        sweep = experiments.run_sweep(grid, measure=measure)
        measured = sweep.fold_measured[sweep.fold] if measure else [math.nan] * len(sweep)
        lines = (out / "sweep.csv").read_text().split("\n")
        assert lines[0] == "re,im,predicted_rate,measured_rate,class" and lines[-1] == ""
        want = []
        for k, (a, b) in enumerate((a, b) for a in re_vals for b in im_vals):
            cls = spectral.classify_eigenvalue(complex(a, b))
            if cls.rate > 0.0:
                predicted = cls.rate
            elif cls.tag is spectral.EigenvalueClass.ZERO:
                predicted = 0.0
            else:
                predicted = -1.5
            cells = [format(float(x), ".17g") for x in (a, b, predicted, measured[k])]
            want.append(",".join(cells + [cls.tag.value]))
        assert lines[1:-1] == want


_NEXT_TENTH = math.nextafter(0.1, 1.0)
#: Sweep axis values: signed zeros, dyadic and decimal values, 0.1 and the
#: double after it with their mirrors, and -400, whose modes pass the
#: saturation level before the fit window opens.
_AXIS_VALUES = [-400.0, -2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 0.1, -0.1, _NEXT_TENTH, -_NEXT_TENTH]


def _sweep_axes():
    listed = st.lists(st.sampled_from(_AXIS_VALUES), min_size=1, max_size=4).map(np.array)
    spaced = st.tuples(
        st.sampled_from([-3.0, -2.9, -1.0, -0.0, 0.5]), st.sampled_from([0.0, 1.0, 2.9, 3.0]), st.integers(1, 7)
    ).map(lambda bounds: np.linspace(*bounds))
    return st.one_of(listed, spaced)


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@given(
    re_axis=_sweep_axes(),
    im_axis=st.one_of(
        _sweep_axes(),
        _sweep_axes().map(np.abs),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=3).map(np.array),
    ),
    measure=st.booleans(),
)
@example(
    re_axis=np.array([-1.0, 1.0, -0.0, 0.0, -400.0]),
    im_axis=np.array([0.1, -_NEXT_TENTH, -0.0, 0.0, -0.1]),
    measure=True,
)
@example(re_axis=np.linspace(-2.0, 6.0, 5), im_axis=np.linspace(-2.9, 2.9, 7), measure=False)
@settings(max_examples=30, deadline=None)
def test_sweep_fold_matches_a_sweep_of_every_point(re_axis, im_axis, measure):
    # run_sweep classifies and measures each distinct (re, |im|) once; the
    # fields and the CSV bytes must be those of classifying, measuring and
    # formatting every point, mirrors one rounding apart and -0.0 included
    re = np.repeat(re_axis, im_axis.size)
    im = np.tile(im_axis, re_axis.size)
    codes, rates = spectral.classify_eigenvalues(re, im)
    predicted = spectral.predicted_rate(codes, rates)
    lam = re.astype(complex)
    lam.imag = im
    measured = experiments._measure_rates(lam, codes) if measure else np.full(re.size, math.nan)
    rows = b"".join(
        b"%.17g,%.17g,%.17g,%.17g,%s\n" % (a, b, p, q, spectral.CLASS_NAMES[c].encode())
        for a, b, p, q, c in zip(re.tolist(), im.tolist(), predicted.tolist(), measured.tolist(), codes.tolist())
    )
    with pytest.MonkeyPatch.context() as m, tempfile.TemporaryDirectory() as out:
        m.setattr(experiments, "parse_grid", lambda spec: (re_axis, im_axis))
        sweep = experiments.run_sweep("given", measure)
        argv = ["sweep", "--grid=given", "--out", out] + ["--measure"] * measure
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_OK
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            written = fh.read()
    assert len(sweep) == re.size
    assert _bits(sweep.fold_rate[sweep.fold]) == _bits(predicted)
    assert _bits(sweep.fold_codes[sweep.fold]) == _bits(codes)
    assert (sweep.fold_measured is None) if not measure else _bits(sweep.fold_measured[sweep.fold]) == _bits(measured)
    assert written == b"re,im,predicted_rate,measured_rate,class\n" + rows


@pytest.mark.parametrize(
    "cls,lam,matrix,t_end",
    [
        (spectral.EigenvalueClass.POSITIVE_REAL, 0.5, [[0.5]], 100.0),
        # and a mode that gives the norm peaks to fit
        (spectral.EigenvalueClass.ZERO, 0.0, [[0.0, 0.0], [0.0, 0.5]], 100.0),
        (spectral.EigenvalueClass.NEGATIVE_REAL, -0.5, [[-0.5]], 60.0),
        # eigenvalues 1 -/+ i, exact in LAPACK's standard 2x2 form
        (spectral.EigenvalueClass.STRICTLY_COMPLEX, 1.0 + 1.0j, [[1.0, 1.0], [-1.0, 1.0]], 60.0),
    ],
    ids=spectral.CLASS_NAMES,
)
def test_sweep_and_run_predict_the_same_rate(cls, lam, matrix, t_end):
    # one eigenvalue per class: the sweep's predicted rate of lam is the one
    # a run predicts for the norm of a system whose dominant eigenvalue is lam
    n = len(matrix)
    cfg = experiments._experiment("one", matrix, [1.0] * n, [0.0] * n, t_end, ["rates"])
    _, summary, _, _ = experiments.run_experiment(cfg)
    sweep = experiments.run_sweep(f"{lam.real!r}:{lam.real!r}:1,{lam.imag!r}:{lam.imag!r}:1")
    [k] = sweep.fold
    assert spectral.CLASSES[sweep.fold_codes[k]] is cls
    assert sweep.fold_rate[k] == summary["rate_fit"]["predicted"]


def test_sweep_overflowing_grid_is_config_error(tmp_path, capsys):
    rc = cli.main(["sweep", "--grid=-1e308:1e308:3,0:1:2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "grid.real" in capsys.readouterr().err


def test_sweep_grid_too_large(tmp_path, capsys):
    rc = cli.main(["sweep", "--grid", "0:1:2000,0:1:2000", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:1:1000001,0:1:1", "0:1:3,0:1:99999999999999999999999"], ids=["real", "imag"])
def test_sweep_axis_above_the_cap_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch, grid):
    # an axis count past the cap is refused before linspace would allocate
    # 8 bytes a point, or fail on a count beyond numpy's array size
    linspace = np.linspace

    def guarded(start, stop, count):
        assert count <= experiments.GRID_POINT_CAP, "an axis was built before its count was checked"
        return linspace(start, stop, count)

    monkeypatch.setattr(np, "linspace", guarded)
    rc = cli.main(["sweep", f"--grid={grid}", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    axis = "real" if grid.startswith("0:1:1000001") else "imag"
    assert err.startswith(f"config error: grid.{axis} has ") and "the cap is 1000000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_bad_grid(tmp_path, capsys):
    for grid, key in (
        ("0:1,0:1:2", "grid.real: expected"),
        ("0:1:3", "grid: expected"),
        ("0:1:x,0:1:3", "grid.real: invalid literal"),
        ("0:1:0,0:1:3", "grid.real: count"),
        ("nan:1:3,0:1:3", "grid.real: bounds"),
    ):
        assert cli.main(["sweep", f"--grid={grid}", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1, grid
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------------------
# reproduce


#: Every check each canned study reports, sorted.
FIGURE_CHECKS = {
    "fig1": ["eigenvalues", "eigenvalues_ok", "envelope_slope", "envelope_slope_ok"],
    "fig2": ["first_order_norm_ratio_at_t5", "first_order_ok", "first_order_rate", "nagd_rate", "nagd_rate_ok"],
    "fig3": ["x1_envelope_slope", "x1_envelope_slope_ok", "x2_rate", "x2_rate_ok"],
    "fig4": ["dist_null_slope", "dist_null_slope_ok", "final_position_error", "final_position_ok"],
    "fig5": ["four_player_eigenvalues", "four_player_eigenvalues_ok", "norm_decay_slopes",
             "norm_decay_slopes_ok", "three_player_eigenvalues", "three_player_eigenvalues_ok"],
}


@pytest.mark.parametrize("figure", sorted(FIGURE_CHECKS))
def test_reproduce_every_figure(tmp_path, figure):
    assert cli.main(["reproduce", "--figure", figure, "--out", str(tmp_path)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / f"{figure}_summary.json").read_text())
    assert summary["pass"] is True
    assert sorted(summary["checks"]) == FIGURE_CHECKS[figure]
    if figure == "fig4":
        # the norm tends to the null-space limit, so its predicted log-log slope is 0
        assert summary["runs"][0]["rate_fit"]["predicted"] == 0.0


def test_reproduce_exits_4_when_a_figure_check_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(experiments.FIGURES["fig1"], "checks", lambda runs, out_dir: {"forced_ok": False})
    assert cli.main(["reproduce", "--figure", "fig1", "--out", str(tmp_path)]) == cli.EXIT_INVARIANT
    assert 'checks: FAIL {"forced_ok": false}' in capsys.readouterr().out
    assert json.loads((tmp_path / "fig1_summary.json").read_text())["pass"] is False


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
    assert cli.main(["reproduce", "--figure", "fig5", "--out", str(tmp_path)]) == cli.EXIT_OK
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
    assert set(report["failures"]) == {
        "modal_closed_form_agreement",
        "rk4_order_factor",
        "damping_power_law",
        "flux_identity_residual",
    }
    # step-free identities survive the coarse grid
    assert "bessel_wronskian_jy" not in report["failures"]
    assert "translation_invariance" not in report["failures"]
    out = capsys.readouterr().out
    assert "FAIL modal_closed_form_agreement" in out


def _separate_flow_checks(dt):
    """The measured values of the batched checks from separate runs, one
    simulate_nagd per system on its own grid, one simulate_modal per mode
    and one eval_modal_series per closed form."""
    t30, t20, t60 = (dynamics.IntegratorConfig(t0=1.0, t_end=t_end, dt=dt) for t_end in (30.0, 20.0, 60.0))
    psd, skew = [[0.4, 0.2], [0.2, 0.8]], [[0.0, 1.0], [-1.0, 0.0]]
    lyap = analysis.lyapunov_series(dynamics.simulate_nagd(psd, [0.0, 0.0], [0.5, 0.3], [0.0, 0.0], t30), psd)
    lyap_skew = analysis.lyapunov_series(dynamics.simulate_nagd(skew, [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], t30), skew)
    rng = np.random.RandomState(7)
    basis, _ = np.linalg.qr(rng.randn(3, 3))
    gmat = basis @ np.diag([0.4, 0.9, 1.7]) @ basis.T
    b = rng.randn(3) * 0.3
    x_star = np.linalg.solve(gmat, -b)
    q0, v0 = rng.randn(3), rng.randn(3) * 0.2
    rec_inhom = dynamics.simulate_nagd(gmat, b, q0, v0, t20)
    rec_hom = dynamics.simulate_nagd(gmat, np.zeros(3), q0 - x_star, v0, t20)
    rec_zero = dynamics.simulate_nagd([[0.0]], [0.0], [0.2], [0.8], t60)
    flux = dynamics.simulate_modal(1j, 1.0, 0.0, t30)
    modal = 0.0
    for lam in (0.317, 0.883, 1.0, -0.5, complex(6.0, 1.5)):
        rec = dynamics.simulate_modal(lam, 1.0, 0.0, t30)
        y = special.eval_modal_series(special.make_modal_solution(lam, 1.0, 1.0, 0.0), rec.times).y
        modal = max(modal, float(np.max(np.abs(y - rec.q))) / float(np.max(np.abs(y))))
    sol = special.make_modal_solution(0.7, 1.0, 1.0, 0.0)
    errs = []
    for h in (dt, dt / 2.0):
        rec = dynamics.simulate_modal(0.7, 1.0, 0.0, dynamics.IntegratorConfig(t0=1.0, t_end=1.0 + 200.0 * dt, dt=h))
        errs.append(float(np.max(np.abs(special.eval_modal_series(sol, rec.times).y - rec.q))))
    damping = 0.0
    for r in (2.0, 3.0, 4.0):
        rec = dynamics.simulate_nagd(
            [[0.0]], [0.0], [0.0], [1.0], dynamics.IntegratorConfig(t0=1.0, t_end=10.0, dt=dt, damping_exponent=r)
        )
        expect = (1.0 / rec.times) ** r
        damping = max(damping, float(np.max(np.abs(rec.v[:, 0] - expect) / expect)))
    return {
        "modal_closed_form_agreement": modal,
        "rk4_order_factor": errs[0] / max(errs[1], 1e-300),
        "damping_power_law": damping,
        "lyapunov_dissipation": float(np.max(np.diff(lyap.V) / np.maximum(lyap.V[:-1], 1e-300))),
        "lyapunov_skew_not_applicable": float(np.max(np.abs(lyap_skew.skew_residual))),
        "translation_invariance": float(np.max(np.abs(rec_inhom.q - (rec_hom.q + x_star)))),
        "nullspace_limit": abs(float(rec_zero.q[-1, 0]) - spectral.nullspace_limit(1.0, 0.2, 0.8)),
        "flux_identity_residual": analysis.energy_identity_residual(flux.times, flux.q, flux.v, 1j),
    }


@pytest.mark.parametrize("dt", [0.0099, 0.5, 8.0])
def test_batched_flow_checks_equal_separate_runs(dt):
    expected = _separate_flow_checks(dt)
    measured = {c.name: c.measured for c in experiments.run_invariant_checks(dt) if c.name in expected}
    assert measured == expected


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "1000", "1e-320", "9", "17.5"])
def test_check_bad_dt_is_config_error(tmp_path, capsys, dt):
    rc = cli.main(["check", "--dt", dt, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --dt" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "check_report.json").exists()
    if dt in ("9", "17.5"):  # a step that leaves t30 too few rows names the minimum
        assert "need at least 5" in captured.err


def test_check_rejects_bad_dt_before_any_check(tmp_path, capsys, monkeypatch):
    # the Bessel checks run first; a bad step must be refused before them
    def boom(z):
        raise AssertionError("a check ran before the step was validated")

    monkeypatch.setattr(special, "bessel_j0", boom)
    rc = cli.main(["check", "--dt", "1000", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "config error: --dt" in capsys.readouterr().err


def _no_convergence(matrix):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _overflow(dt):
    raise OverflowSaturation("I_0(800) overflows double precision")


@pytest.mark.parametrize(
    "argv, target, replacement, message",
    [
        (["classify", "--config", "{cfg}"], (np.linalg, "eig"), _no_convergence,
         "numerical error: LAPACK geev did not converge: Eigenvalues did not converge"),
        (["check"], (experiments, "run_invariant_checks"), _overflow,
         "numerical error: I_0(800) overflows double precision"),
    ],
    ids=["eigensolver", "overflow"],
)
def test_numerical_error_exit_code(tmp_path, capsys, monkeypatch, argv, target, replacement, message):
    cfg = _write_config(tmp_path, FIG1)
    monkeypatch.setattr(*target, replacement)
    rc = cli.main([a.format(cfg=cfg) for a in argv])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == message + "\n"
    assert "Traceback" not in err


def test_any_other_nagdyn_error_exits_4_on_one_line(capsys, monkeypatch):
    def singular(out_dir, dt):
        raise SingularBasis("basis Wronskian vanished")

    monkeypatch.setattr(cli, "cmd_check", singular)
    assert cli.main(["check"]) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == "error: basis Wronskian vanished\n"


# --------------------------------------------------------------------------
# BLAS threads


@pytest.mark.parametrize(
    "config, code",
    [(FIG1, cli.EXIT_OK), ({"initial": {"q0": [1.0]}}, cli.EXIT_CONFIG)],
    ids=["success", "config-error"],
)
def test_command_runs_blas_on_one_thread_and_restores_the_count(tmp_path, monkeypatch, config, code):
    api = cli._blas_thread_api()
    if api is None:
        pytest.skip("numpy links no OpenBLAS thread API")
    set_threads, get_threads = api
    original = get_threads()
    seen = []
    load_config = experiments.load_config

    def recording_load_config(path):
        seen.append(get_threads())
        return load_config(path)

    monkeypatch.setattr(experiments, "load_config", recording_load_config)
    try:
        set_threads(2)
        caller = get_threads()
        if caller == 1:
            pytest.skip("OpenBLAS keeps one thread here")
        assert cli.main(["classify", "--config", _write_config(tmp_path, config)]) == code
        assert seen == [1]
        assert get_threads() == caller
    finally:
        set_threads(original)


# --------------------------------------------------------------------------
# unwritable output


def _blocked_out(tmp_path):
    # a directory path under a regular file cannot be created
    (tmp_path / "file").write_text("x")
    return str(tmp_path / "file" / "out")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--config", "{cfg}", "--out", "{out}"],
        ["simulate", "--config", "{cfg}", "--out", "{out}"],
        ["sweep", "--grid", "0:1:2,0:1:2", "--out", "{out}"],
        ["check", "--out", "{out}"],
    ],
    ids=["classify", "simulate", "sweep", "check"],
)
def test_unwritable_out_is_output_error(tmp_path, capsys, argv):
    payload = json.loads(json.dumps(FIG1))
    payload["integrator"]["t_end"] = 5.0
    subs = {"cfg": _write_config(tmp_path, payload), "out": _blocked_out(tmp_path)}
    rc = cli.main([a.format(**subs) for a in argv])
    assert rc == cli.EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot write ") and subs["out"] in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("**/.tmp-*"))


def test_closed_stdout_pipe_ends_silently_with_the_output_code(tmp_path, capsys, monkeypatch):
    # ``nagdyn classify ... | head -n 1``: the reader is gone, every write raises
    sink = open(tmp_path / "sink", "w")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink.fileno()

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    rc = cli.main(["classify", "--config", _write_config(tmp_path, FIG1)])
    assert rc == cli.EXIT_OUTPUT
    # the rest of the output goes to the null device
    sink.write("dropped")
    sink.close()
    assert (tmp_path / "sink").read_text() == ""
    assert capsys.readouterr().err == ""


def test_write_json_converts_numpy_and_complex_values(tmp_path):
    path = tmp_path / "a.json"
    payload = {
        "bool": np.bool_(True),
        "int": np.int64(3),
        "float32": np.float32(0.5),
        "float64": np.float64(0.1),
        "array": np.array([[1.0, 2.0]]),
        "complex": [1.0 - 2.0j, np.complex128(3.0j)],
        "tuple": (1, np.int32(2)),
    }
    experiments.write_json(str(path), payload)
    loaded = json.loads(path.read_text())
    assert loaded == {
        "bool": True,
        "int": 3,
        "float32": 0.5,
        "float64": 0.1,
        "array": [[1.0, 2.0]],
        "complex": [{"re": 1.0, "im": -2.0}, {"re": 0.0, "im": 3.0}],
        "tuple": [1, 2],
    }
    assert loaded["bool"] is True and type(loaded["int"]) is int
    with pytest.raises(TypeError):
        experiments.write_json(str(path), {"set": {1}})


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(experiments.os, "replace", fail)
    with pytest.raises(OutputError, match="Permission denied"):
        experiments.write_json(str(tmp_path / "a.json"), {"x": 1})
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# CSV writer


def test_write_csv_rows_and_text_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(_csvformat, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(_csvformat, "_PASS_VALUES", 4)
    a = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1 / 3, 5e-324, 1e300, -2.5, 7.0])
    b = np.arange(10)
    names = [f"L{i}" for i in range(10)]
    tags = experiments.CodedColumn(names, np.arange(10))
    path = tmp_path / "t.csv"
    experiments.write_csv(str(path), ["a", "b", "tag"], [a, b, tags])
    want = ["a,b,tag"] + [
        f"{format(float(x), '.17g')},{format(float(y), '.17g')},{t}" for x, y, t in zip(a, b, names)
    ]
    assert path.read_text() == "\n".join(want) + "\n"
    with pytest.raises(ValueError):
        experiments.write_csv(str(path), ["a", "b"], [a, b, tags])


# --------------------------------------------------------------------------
# system fingerprint


def _fingerprint_by_format(system):
    """The summary's system fingerprint, one ``format(x, ".17g")`` per entry."""
    blob = ";".join(format(float(x), ".17g") for x in system.matrix.ravel()) + "|" + ";".join(
        format(float(x), ".17g") for x in system.offset
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("n", [1, 2, 12, 40])
def test_system_fingerprint_formats_each_entry_to_17_digits(n):
    # 156 and 1640 entries take cell_table's array path, 1 and 6 its
    # per-value one; the edge values go into G where its norm stays finite,
    # and all of them into b
    rng = np.random.RandomState(n)
    g = rng.randn(n, n) * 10.0 ** rng.randint(-20, 20, (n, n))
    b = rng.randn(n)
    edges = [-0.0, 5e-324, 1e16, 1e-11, 1 / 3, 1.7976931348623157e308, -1.7976931348623157e308]
    g.ravel()[:5] = edges[: min(5, g.size)]
    b[:7] = edges[::-1][: min(7, n)]
    system = game.PseudoGradientSystem(matrix=g, offset=b)
    assert experiments._fingerprint(system) == _fingerprint_by_format(system)
