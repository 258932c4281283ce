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


#: A coded column's table: constants, values that ``_cells`` leaves to
#: ``%.17g``, and a cell of all 24 bytes, whose slot needs one more.
_TABLE = np.array(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e17, np.nextafter(1e-4, 0.0), 1 / 3, -2.5e-7,
     -1.2345678901234567e-100]
)


def _values(col):
    return np.asarray(col.values)[col.index] if isinstance(col, experiments.CodedColumn) else col


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_csv_matches_oracle_across_chunks(tmp_path, monkeypatch, chunk, rows):
    # each column and the labels, plain and coded: a coded column writes
    # the bytes of its values passed plainly; with no value budget every
    # chunk holds _CHUNK_ROWS rows
    monkeypatch.setattr(_csvformat, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(_csvformat, "_CHUNK_VALUES", 0)
    k = np.arange(rows)
    wide = np.concatenate([1.0 + 0.01 * np.arange(200), _TABLE])  # enough values for the array formatter
    a = experiments.CodedColumn(_TABLE, k % _TABLE.size)
    b = experiments.CodedColumn(wide, (37 * k + 5) % wide.size)
    c = experiments.CodedColumn(_TABLE, (_TABLE.size - 1 - k) % _TABLE.size)
    names = ("Zero", "ü", "", "PositiveReal", "λ·x", "Negative")
    tags = experiments.CodedColumn(names, k % len(names))
    labels = [names[j] for j in tags.index]
    # the same labels in another table: sorted, holding only the names in use
    table, index = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    used = experiments.CodedColumn(tuple(table), index)
    for header, columns, coded_labels in (
        (["a", "c"], [a, c], None),  # tables that %.17g formats one value at a time
        (["λ", "a", "tag"], [b, a], tags),  # tables that take the array formatter
        (["b", "c", "tag"], [np.asarray(_values(b)), c], tags),
    ):
        assert columns[0].shape[0] == len(columns[0]) == rows
        plain = [_values(col) for col in columns]
        want = _oracle(header, plain, None if coded_labels is None else labels)
        for given, given_labels in ((plain, used), (columns, coded_labels)):
            path = tmp_path / "t.csv"
            experiments.write_csv(str(path), header, given, labels=None if coded_labels is None else given_labels)
            assert path.read_bytes() == want


def _chunk_rows(monkeypatch, tmp_path, header, columns, labels=None):
    """The rows of each chunk that ``write_csv`` formats, and the bytes it writes."""
    rows = []
    format_rows = _csvformat.format_rows

    def spy(cols, buf=None):
        rows.append(len(cols[0]) if isinstance(cols[0], np.ndarray) else cols[0][1].shape[0])
        return format_rows(cols, buf)

    path = tmp_path / "t.csv"
    with monkeypatch.context() as m:
        m.setattr(_csvformat, "format_rows", spy)
        experiments.write_csv(str(path), header, columns, labels=labels)
    return rows, path.read_bytes()


def _sweep_like(n):
    """A classify-only sweep table of ``n`` rows: coded axes, one plain column, coded nan and labels."""
    k = np.arange(n)
    columns = [
        experiments.CodedColumn(np.linspace(-2.0, 6.0, 97), k // 89 % 97),
        experiments.CodedColumn(np.linspace(-3.0, 3.0, 89), k % 89),
        np.where(k % 3 == 0, -1.5, np.sqrt(k) / 7.0),
        experiments.CodedColumn(np.array([math.nan]), np.zeros(n, np.int64)),
    ]
    return ["re", "im", "predicted_rate", "measured_rate", "class"], columns, experiments.CodedColumn(
        ("PositiveReal", "Zero", "NegativeReal", "StrictlyComplex"), k % 4
    )


def _plain_table(n, ncols):
    rng = np.random.default_rng(ncols)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-12, 17, n) for _ in range(ncols)]
    return [f"c{j}" for j in range(ncols)], columns


def test_write_csv_chunks_hold_about_4096_plain_values(tmp_path, monkeypatch):
    # max(1024, 4096 // plain columns) rows, never more than 4096
    header, columns, labels = _sweep_like(9000)
    assert _chunk_rows(monkeypatch, tmp_path, header, columns, labels)[0] == [4096, 4096, 808]
    for ncols, rows in ((1, 4096), (2, 2048), (3, 1365), (4, 1024), (5, 1024), (9, 1024)):
        header, columns = _plain_table(5000, ncols)
        assert set(_chunk_rows(monkeypatch, tmp_path, header, columns)[0][:-1]) == {rows}
    # no plain column at all: the budget is still 4096 rows
    coded = [experiments.CodedColumn(np.array([0.5, 2.0]), np.arange(5000) % 2)]
    assert _chunk_rows(monkeypatch, tmp_path, ["a"], coded)[0] == [4096, 904]


@pytest.mark.parametrize("table", ["narrow_coded", "wide_plain"])
def test_write_csv_bytes_do_not_depend_on_the_chunk_budget(tmp_path, monkeypatch, table):
    if table == "narrow_coded":
        header, columns, labels = _sweep_like(5000)
    else:
        (header, columns), labels = _plain_table(3000, 7), None
    names = None if labels is None else [labels.values[j] for j in labels.index]
    want = _oracle(header, [_values(col) for col in columns], names)
    for rows, values in ((1024, 4096), (1, 0), (333, 0), (1024, 10**6), (5000, 0)):
        monkeypatch.setattr(_csvformat, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(_csvformat, "_CHUNK_VALUES", values)
        chunks, got = _chunk_rows(monkeypatch, tmp_path, header, columns, labels)
        assert got == want
        assert sum(chunks) == len(columns[0])


def test_write_csv_refuses_ragged_input(tmp_path):
    path = str(tmp_path / "t.csv")
    a, b = np.zeros(4), np.zeros(3)
    with pytest.raises(ValueError, match="lengths differ"):
        experiments.write_csv(path, ["a", "b"], [a, b])
    short, nul = np.zeros(3, int), np.array([0, 1, 0, 0])
    with pytest.raises(ValueError, match="lengths differ"):
        experiments.write_csv(path, ["a", "tag"], [a], labels=experiments.CodedColumn(("x",), short))
    with pytest.raises(ValueError, match="NUL"):
        experiments.write_csv(path, ["a", "tag"], [a], labels=experiments.CodedColumn(("x", "y\0"), nul))
    with pytest.raises(TypeError, match="CodedColumn"):
        experiments.write_csv(path, ["a", "tag"], [a], labels=["x"] * 4)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "index",
    [np.array([0, -1]), np.array([0, 2]), np.array([0.0, 1.0]), np.array([True, False]), np.array([[0], [1]])],
    ids=["negative", "past_the_end", "float", "bool", "2d"],
)
def test_write_csv_refuses_an_index_outside_its_table(tmp_path, index):
    path = tmp_path / "t.csv"
    table = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="index of a coded column"):
        experiments.write_csv(str(path), ["a"], [experiments.CodedColumn(table, index)])
    with pytest.raises(ValueError, match="index of a coded column"):
        experiments.write_csv(str(path), ["a", "tag"], [table], labels=experiments.CodedColumn(("x", "y"), index))
    assert not path.exists()
