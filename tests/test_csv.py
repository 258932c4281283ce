"""The CSV writer: every float cell is exactly ``"%.17g" % x``, at any chunking."""

import math

import numpy as np
import pytest

from nagdyn import _csvformat, experiments


def _oracle(header, columns):
    """The bytes the writer produced when it formatted one row at a time; a list of str is a text column."""
    text = [isinstance(col, list) and all(isinstance(x, str) for x in col) for col in columns]
    line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    cells = [col if t else np.asarray(col, dtype=float).tolist() for col, t in zip(columns, text)]
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

    def capture(path, header, columns):
        written.extend(np.asarray(col, dtype=float) for col in columns)
        write_csv(path, header, columns)

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
    """The cells of ``col`` passed plainly: an array of numbers, or a list of str for a text column."""
    if not isinstance(col, experiments.CodedColumn):
        return col
    if all(isinstance(x, str) for x in col.values):
        return [col.values[j] for j in col.index]
    return np.asarray(col.values)[col.index]


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_csv_matches_oracle_across_chunks(tmp_path, monkeypatch, chunk, rows):
    # each column, numbers and text, plain and coded: a coded number column
    # writes the bytes of its values passed plainly, and a text column those
    # of its cells in another table; with passes of _CHUNK_ROWS values every
    # chunk holds _CHUNK_ROWS rows, and a coded table is formatted in many passes
    monkeypatch.setattr(_csvformat, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(_csvformat, "_PASS_VALUES", chunk)
    k = np.arange(rows)
    wide = np.concatenate([1.0 + 0.01 * np.arange(200), _TABLE])  # enough values for the array formatter
    a = experiments.CodedColumn(_TABLE, k % _TABLE.size)
    b = experiments.CodedColumn(wide, (37 * k + 5) % wide.size)
    c = experiments.CodedColumn(_TABLE, (_TABLE.size - 1 - k) % _TABLE.size)
    names = ("Zero", "ü", "", "PositiveReal", "λ·x", "Negative")
    tags = experiments.CodedColumn(names, k % len(names))
    # the same text in another table: sorted, holding only the names in use
    table, index = np.unique(np.asarray(_values(tags), dtype=object), return_inverse=True)
    used = experiments.CodedColumn(tuple(table), index)
    for header, columns in (
        (["a", "c"], [a, c]),  # tables that %.17g formats one value at a time
        (["λ", "a", "tag"], [b, a, tags]),  # tables that take the array formatter
        (["b", "c", "tag"], [np.asarray(_values(b)), c, tags]),
        (["tag", "b", "c"], [tags, b, np.asarray(_values(c))]),  # text first
    ):
        assert columns[0].shape[0] == len(columns[0]) == rows
        want = _oracle(header, [_values(col) for col in columns])
        for given in ([used if col is tags else _values(col) for col in columns], columns):
            path = tmp_path / "t.csv"
            experiments.write_csv(str(path), header, given)
            assert path.read_bytes() == want


@pytest.mark.parametrize("rows", [0, 5, 5000])
def test_write_csv_text_column_in_the_middle_matches_oracle(tmp_path, rows):
    # a text column between number columns takes ',' as its separator; the
    # last column, a coded number column, ends the row
    k = np.arange(rows)
    names = ("StrictlyComplex", "ü", "", "Zero")
    columns = [
        np.sqrt(k) / 7.0,
        experiments.CodedColumn(names, k % len(names)),
        -np.cbrt(k) * 1e-3,
        experiments.CodedColumn(names[::-1], (k // 3) % len(names)),
        experiments.CodedColumn(np.linspace(-2.0, 6.0, 300), k % 300),
    ]
    header = ["x", "tag", "y", "other", "re"]
    path = tmp_path / "t.csv"
    experiments.write_csv(str(path), header, columns)
    assert path.read_bytes() == _oracle(header, [_values(col) for col in columns])


def _chunk_rows(monkeypatch, tmp_path, header, columns):
    """The rows of each chunk that ``write_csv`` formats, and the bytes it writes."""
    rows = []
    format_rows = _csvformat.format_rows

    def spy(cols, buf=None):
        rows.append(len(cols[0]) if isinstance(cols[0], np.ndarray) else cols[0][1].shape[0])
        return format_rows(cols, buf)

    path = tmp_path / "t.csv"
    with monkeypatch.context() as m:
        m.setattr(_csvformat, "format_rows", spy)
        experiments.write_csv(str(path), header, columns)
    return rows, path.read_bytes()


def _sweep_like(n):
    """A classify-only sweep table of ``n`` rows: coded axes, one plain column, coded nan and text."""
    k = np.arange(n)
    columns = [
        experiments.CodedColumn(np.linspace(-2.0, 6.0, 97), k // 89 % 97),
        experiments.CodedColumn(np.linspace(-3.0, 3.0, 89), k % 89),
        np.where(k % 3 == 0, -1.5, np.sqrt(k) / 7.0),
        experiments.CodedColumn(np.array([math.nan]), np.zeros(n, np.int64)),
        experiments.CodedColumn(("PositiveReal", "Zero", "NegativeReal", "StrictlyComplex"), k % 4),
    ]
    return ["re", "im", "predicted_rate", "measured_rate", "class"], columns


def _plain_table(n, ncols):
    rng = np.random.default_rng(ncols)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-12, 17, n) for _ in range(ncols)]
    return [f"c{j}" for j in range(ncols)], columns


def test_write_csv_chunks_hold_about_one_pass_of_plain_values(tmp_path, monkeypatch):
    # max(1024, 8192 // plain columns) rows, never more than 8192
    assert _csvformat._PASS_VALUES == 8192 and _csvformat._CHUNK_ROWS == 1024
    header, columns = _sweep_like(17000)
    assert _chunk_rows(monkeypatch, tmp_path, header, columns)[0] == [8192, 8192, 616]
    for ncols, rows in ((1, 8192), (2, 4096), (3, 2730), (7, 1170), (8, 1024), (12, 1024)):
        header, columns = _plain_table(17000, ncols)
        assert set(_chunk_rows(monkeypatch, tmp_path, header, columns)[0][:-1]) == {rows}
    # no plain column at all: the budget is still 8192 rows
    coded = [experiments.CodedColumn(np.array([0.5, 2.0]), np.arange(9000) % 2)]
    assert _chunk_rows(monkeypatch, tmp_path, ["a"], coded)[0] == [8192, 808]


@pytest.mark.parametrize("table", ["narrow_coded", "wide_plain"])
def test_write_csv_bytes_do_not_depend_on_the_chunk_budget(tmp_path, monkeypatch, table):
    # the pass size sets the chunk's value budget and splits each cell_table call
    header, columns = _sweep_like(5000) if table == "narrow_coded" else _plain_table(3000, 7)
    want = _oracle(header, [_values(col) for col in columns])
    for rows, values in ((1024, 4096), (1, 1), (333, 333), (1024, 10**6), (5000, 5000), (1024, 129)):
        monkeypatch.setattr(_csvformat, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(_csvformat, "_PASS_VALUES", values)
        chunks, got = _chunk_rows(monkeypatch, tmp_path, header, columns)
        assert got == want
        assert sum(chunks) == len(columns[0])


def test_write_csv_refuses_ragged_input(tmp_path):
    path = str(tmp_path / "t.csv")
    a, b = np.zeros(4), np.zeros(3)
    with pytest.raises(ValueError, match="lengths differ"):
        experiments.write_csv(path, ["a", "b"], [a, b])
    short, nul = np.zeros(3, int), np.array([0, 1, 0, 0])
    with pytest.raises(ValueError, match="lengths differ"):
        experiments.write_csv(path, ["a", "tag"], [a, experiments.CodedColumn(("x",), short)])
    with pytest.raises(ValueError, match="NUL"):
        experiments.write_csv(path, ["a", "tag"], [a, experiments.CodedColumn(("x", "y\0"), nul)])
    with pytest.raises(ValueError, match="NUL"):
        experiments.write_csv(path, ["tag", "a"], [experiments.CodedColumn(("x", "y\0"), nul), a])
    with pytest.raises(ValueError, match="column counts differ"):
        experiments.write_csv(path, ["a"], [a, experiments.CodedColumn(("x",), np.zeros(4, int))])
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "column",
    [["x"] * 4, np.array(["1", "2", "3", "4"]), np.array([None] * 4), np.zeros(4, complex)],
    ids=["list_of_str", "str_array", "object_array", "complex"],
)
def test_write_csv_refuses_a_plain_column_of_str_or_objects(tmp_path, column):
    # text goes in a CodedColumn of str; any other plain column is refused
    # before a file is created, even where numpy could read its strings as
    # numbers, and a complex one, whose imaginary parts would be dropped
    path = tmp_path / "out" / "t.csv"
    with pytest.raises(TypeError, match="CodedColumn of str"):
        experiments.write_csv(str(path), ["a", "tag"], [np.zeros(4), column])
    assert not (tmp_path / "out").exists()


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
        experiments.write_csv(str(path), ["a", "tag"], [table, experiments.CodedColumn(("x", "y"), index)])
    assert not path.exists()
