"""The CSV writer: every float cell is exactly ``"%.17g" % x``, at any chunking."""

import math

import numpy as np
import pytest

from nagdyn import _csvformat, experiments


def _oracle(header, columns, labels=None):
    """The bytes the writer produced when it formatted one row at a time."""
    line = ",".join(["%.17g"] * len(columns) + ["%s"] * (labels is not None)) + "\n"
    cells = [np.asarray(col, dtype=float).tolist() for col in columns]
    if labels is not None:
        cells.append(labels)
    return (",".join(header) + "\n" + "".join(line % row for row in zip(*cells))).encode("utf-8")


def _formatted(values):
    return _csvformat.format_rows([np.asarray(values, dtype=float)]).tobytes()


def _reference(values):
    return "".join(format(x, ".17g") + "\n" for x in np.asarray(values, dtype=float).tolist()).encode()


def _edge_values():
    tens = np.array([10.0**k for k in range(-12, 18)])
    switch = np.array([1e-4, 1e-5, 1e16, 1e17])
    near = np.concatenate([tens, switch])
    # 18 significant digits ending in 5, exact in binary: odd m / 2**d with
    # 18 - d integer digits, the ties of the 17-digit rounding
    rng = np.random.default_rng(5)
    ties = []
    for d in range(1, 12):
        lo, hi = 10 ** (17 - d) * 2**d, min(2 ** 53, 10 ** (18 - d) * 2**d)
        if lo < hi:
            m = rng.integers(lo // 2, hi // 2, 200) * 2 + 1
            ties.append(m / 2.0**d)
    integers = np.concatenate(
        [np.arange(-2000.0, 2001.0), 2.0**53 - np.arange(0, 100, 5), 9007199254740985.0 - 10 * np.arange(50)]
    )
    dyadic = np.concatenate([np.arange(-64, 65) / 2.0**k for k in (1, 3, 10, 30, 52)])
    grid = 1.0 + 0.01 * np.arange(10_001)
    return np.concatenate(
        [
            [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, np.copysign(math.nan, -1.0)],
            [5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny],
            near, np.nextafter(near, 0.0), np.nextafter(near, math.inf), -near,
            np.nextafter(1e-4, 0.0) * np.array([1.0, -1.0]),
            *ties, integers, dyadic, grid, -grid,
        ]
    )


def test_edge_values_match_percent_g():
    values = _edge_values()
    assert _formatted(values) == _reference(values)


def test_million_doubles_match_percent_g():
    # every binade from subnormal to max, then as many in the fast range
    rng = np.random.default_rng(20261018)
    n = 500_000
    exponent = rng.integers(0, 2047, n, dtype=np.uint64)  # 2047 would be inf/nan
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64)
    anywhere = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
    fast = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 17.0, n)
    for values in (anywhere, fast):
        for lo in range(0, n, 100_000):
            chunk = values[lo:lo + 100_000]
            assert _formatted(chunk) == _reference(chunk)


def test_without_wide_long_double_every_value_falls_back(monkeypatch):
    values = _edge_values()
    monkeypatch.setattr(_csvformat, "_DELTA", 1.0)
    assert _formatted(values) == _reference(values)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double no wider than double")
def test_fig1_csv_values_take_the_fast_path(tmp_path, monkeypatch):
    written = []
    write_csv = experiments.write_csv

    def capture(path, header, columns, labels=None):
        written.extend(np.asarray(col, dtype=float) for col in columns)
        write_csv(path, header, columns, labels)

    monkeypatch.setattr(experiments, "write_csv", capture)
    experiments.reproduce_figure("fig1", str(tmp_path))
    values = np.concatenate(written)
    fallback = _csvformat._cells(values)[1].size
    assert values.size > 10_000 and fallback <= 0.05 * values.size


# --------------------------------------------------------------------------
# the writer against the row-at-a-time oracle


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_csv_matches_oracle_across_chunks(tmp_path, monkeypatch, chunk, rows):
    monkeypatch.setattr(experiments, "_CSV_CHUNK_ROWS", chunk)
    cells = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1 / 3, -2.5e-7])
    a = np.resize(cells, rows)
    b = np.arange(rows) * 0.01 + 1.0
    labels = ["Zero", "ü", "", "PositiveReal", "λ·x"][:rows] + ["Negative"] * max(rows - 5, 0)
    for header, columns, tags in ((["a", "b"], [a, b], None), (["a", "b", "tag"], [a, b], labels)):
        path = tmp_path / "t.csv"
        experiments.write_csv(str(path), header, columns, labels=tags)
        assert path.read_bytes() == _oracle(header, columns, tags)


def test_write_csv_refuses_ragged_input(tmp_path):
    path = str(tmp_path / "t.csv")
    a, b = np.zeros(4), np.zeros(3)
    with pytest.raises(ValueError, match="lengths differ"):
        experiments.write_csv(path, ["a", "b"], [a, b])
    with pytest.raises(ValueError, match="lengths differ"):
        experiments.write_csv(path, ["a", "tag"], [a], labels=["x"] * 3)
    with pytest.raises(ValueError, match="NUL"):
        experiments.write_csv(path, ["a", "tag"], [a], labels=["x", "y\0", "x", "x"])
    assert not (tmp_path / "t.csv").exists()
