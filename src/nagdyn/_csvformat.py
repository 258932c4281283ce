"""CSV rows of float columns, each cell exactly ``"%.17g" % x``, formatted with array operations.

Python's ``%.17g`` runs David Gay's bignum ``dtoa`` once per value.  For 17
significant digits the exact significand can instead be found with
fixed-width arithmetic plus a certified error bound (Gay, AT&T NAM 90-10,
1990; Adams, "Ryu revisited: printf floating point conversion", OOPSLA
2019), so whole columns are converted at once:

* For finite x with 1e-11 <= |x| < 1e16, take e = floor(log10|x|) and
  y = |x| * 10**(16 - e) in ``np.longdouble``.  |x| and 10**k (k <= 27)
  are exact there, so y carries one rounding of at most ``_DELTA``.  When
  y lies in [1e16, 1e17) and its fraction is more than ``_DELTA`` from
  one half, the nearest integer n to y is the correctly rounded 17-digit
  significand, and e is the decimal exponent ``%g`` prints.
* Every other value is formatted by ``b"%.17g" % v`` itself: values
  outside that range, within ``_DELTA`` of a rounding tie, whose rounding
  carries into the next decade, or whose log10 picked the wrong decade.
  Where long double is no wider than double, ``_DELTA`` exceeds one half
  and every value takes this path: the output is the same, only slower.
* NaN (of either sign), +-inf and +-0 are constants.

The digits of n are packed four at a time from a ``%04d`` table into
little-endian 64-bit words, and each cell is laid out as ``%g`` does
(``ddd.ddd``, ``0.000ddd`` or ``d.ddde-XX``, trailing zeros and a bare
point dropped) by masking and shifting those words with a per-layout
record.  A row is a run of slots, one cell and its separator each,
padded with NUL; dropping the NUL bytes leaves the CSV text.

Every column reaches the rows through a slot table, whose entries are
its cells NUL-padded to the longest and each followed by its separator.
A plain column of numbers gets one table per chunk of rows, made from
its cells in that chunk, so its slots are as wide as the chunk's widest
cell.  A column may also be a :class:`CodedColumn`, a table of values and
one index into it per row (dictionary encoding: Abadi, Madden &
Ferreira, SIGMOD 2006); a table of ``str`` makes a text column.
:func:`csv_chunks` formats each entry of such a table once per write,
and each row of a chunk gathers its slot: text and coded numbers alike.
A slot fills all of its bytes, so the rows of a chunk are copied into an
uninitialised buffer.  :func:`_cells` formats at most ``_PASS_VALUES``
values a call, whether they fill a chunk or a table.  Up to
``_FEW_VALUES`` values, ``%.17g`` one value at a time is faster than the
array path and formats them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

_XMIN, _XMAX = -11, 15  # decimal exponents of the fast path
_NX = _XMAX - _XMIN + 1
_NFAST = 2 * _NX * 17  # layouts: sign x exponent x significant digits kept
_CELL = 24  # bytes of text in a cell: the longest "%.17g" output

_POW10 = np.array([10**k for k in range(28)], dtype=np.longdouble)
# Half an ulp of y < 1e17 < 2**57; it exceeds 1/2 unless long double holds
# 10**27 exactly, and then nothing takes the fast path.
_DELTA = float(np.finfo(np.longdouble).eps) * 2.0**55 if np.finfo(np.longdouble).nmant >= 63 else 1.0


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """``"%04d" % k`` as a little-endian word, and its number of trailing zeros, for k < 10**4."""
    k = np.arange(10_000, dtype=np.uint16)
    chars = np.empty((k.size, 4), np.uint8)
    for p, scale in enumerate((1000, 100, 10, 1)):
        chars[:, p] = k // scale % 10 + ord("0")
    zeros = (k % 10 == 0).astype(np.int8) + (k % 100 == 0) + (k % 1000 == 0) + (k == 0)
    return chars.view("<u4").ravel().astype(np.uint64), zeros


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per layout: head mask, tail mask and constant text (3 words each, by row), and a shift.

    The digit string D0..D16 splits into a head D0..D(h-1) and a tail
    Dh..D(k-1), k the digits ``%g`` keeps.  The head moves right by the
    prefix length (the shift), the tail by one byte more to make room for
    the point, and the constant text holds the prefix, the point and the
    exponent.  The last five layouts are the constants nan, inf, -inf, 0
    and -0.
    """
    heads, tails, shifts, texts = [], [], [], []
    for neg, x in itertools.product((0, 1), range(_XMIN, _XMAX + 1)):
        sign = b"-" * neg
        if x >= 0:  # ddd.ddd: integer digits stay even when zero
            prefix, head, suffix = sign, x + 1, b""
        elif x >= -4:  # 0.000ddd
            prefix, head, suffix = sign + b"0." + b"0" * (-x - 1), 17, b""
        else:  # d.ddde-XX
            prefix, head, suffix = sign, 1, b"e-%02d" % -x
        for kept in range(1, 18):
            length = max(kept, head) if x >= 0 else kept
            tail = max(length - head, 0)
            heads.append(length - tail)
            tails.append(tail)
            shifts.append(8 * len(prefix))
            texts.append(prefix + bytes(length - tail) + (b"." + bytes(tail) if tail else b"") + suffix)
    texts += [b"nan", b"inf", b"-inf", b"0", b"-0"]
    head = np.array(heads + [0] * 5)[:, None]
    tail = np.array(tails + [0] * 5)[:, None]
    p = np.arange(_CELL)

    def rows_of_words(b: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(b.astype(np.uint8).view("<u8").T)

    return (
        rows_of_words((p < head) * 0xFF),
        rows_of_words(((p >= head) & (p < head + tail)) * 0xFF),
        rows_of_words(np.array(texts, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)),
        np.array(shifts + [0] * 5, np.uint64),
    )


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The read-only digit and layout tables, built once, on first use.

    Built at import instead, they would cost every import, and raise the
    peak memory of a process that writes its CSV after its largest arrays
    are freed (a classify-only sweep), by their construction.
    """
    tables = (*_digit_tables(), *_layouts())
    for table in tables:
        table.flags.writeable = False
    return tables


_U1, _U8, _U32, _U56, _U63 = (np.uint64(b) for b in (1, 8, 32, 56, 63))


def _cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the values ``v``, three words each (a transposed view), and the indices left for ``%.17g``.

    Only the fast-path and constant cells are filled in.
    """
    digits4, zeros4, head_mask, tail_mask, layout_text, layout_shift = _tables()
    a = np.abs(v)
    fast = (a >= 1e-11) & (a < 1e16)  # False for NaN
    a = np.where(fast, a, 1.0)  # NaN must not reach the long-double product
    e = np.floor(np.log10(a)).astype(np.int64)
    np.maximum(e, _XMIN, out=e)  # so that 10**(16 - e) stays exact
    np.minimum(e, _XMAX, out=e)
    y = a.astype(np.longdouble)
    y *= _POW10[16 - e]
    n = y.astype(np.int64)
    f = (y - n).astype(float)  # a multiple of ulp(y) >= 2**-10 below 1: exact
    # The rounding is decided, and y >= 1e16 is certain: the integer part
    # exceeds 1e16, or y exceeds it by more than the error, or e >= 0, where
    # 10**e is a double whose neighbours lie 1e-16 away, so that an integer
    # part of 1e16 means |x| == 10**e and an exact y.  Then no carry to 1e17.
    ok = fast & (np.abs(f - 0.5) > _DELTA) & (n + ((f > _DELTA) | (e >= 0)) > 10**16)
    n += f > 0.5
    ok &= n < 10**17
    n[~ok] = 10**16  # any significand, to keep the table indices below in range

    hi = n // 10**9  # digits 0-7
    lo = n - hi * 10**9
    mid = lo // 10  # digits 8-15
    last = lo - mid * 10  # digit 16
    groups = np.empty((4, v.size), np.int64)  # digits 0-3, 4-7, 8-11 and 12-15
    np.floor_divide(hi, 10**4, out=groups[0])
    np.floor_divide(mid, 10**4, out=groups[2])
    np.subtract(hi, groups[0] * 10**4, out=groups[1])
    np.subtract(mid, groups[2] * 10**4, out=groups[3])
    # trailing zeros: of digit 16, then of each group whose later digits are all zero
    g = zeros4[groups]
    zeros = 4 + np.where(groups[1] != 0, g[1], 4 + g[0])
    zeros = 4 + np.where(groups[2] != 0, g[2], zeros)
    zeros = np.where(last != 0, 0, 1 + np.where(groups[3] != 0, g[3], zeros))
    key = (np.signbit(v) * _NX + (e - _XMIN)) * 17 + (16 - zeros)
    rest = np.flatnonzero(~ok)
    if rest.size:
        w = v[rest]
        # the constants: nan, inf, -inf, 0, -0
        key[rest] = _NFAST + np.where(np.isnan(w), 0, np.where(np.isinf(w), 1, 3) + np.signbit(w))
        rest = rest[np.isfinite(w) & (w != 0)]

    c = digits4[groups]
    digits = np.empty((3, v.size), np.uint64)  # D0..D16 as three little-endian words
    np.bitwise_or(c[0], c[1] << _U32, out=digits[0])
    np.bitwise_or(c[2], c[3] << _U32, out=digits[1])
    np.add(last.view(np.uint64), ord("0"), out=digits[2])
    # head, then the tail one byte on: the digits with a gap for the point
    tail = digits & np.take(tail_mask, key, axis=1)
    u = (digits & np.take(head_mask, key, axis=1)) | (tail << _U8)
    u[1:] |= tail[:-1] >> _U56
    # then all of it on by the prefix, carrying between words
    shift = layout_shift[key]
    text = np.take(layout_text, key, axis=1)
    text |= u << shift
    text[1:] |= u[:-1] >> _U1 >> (_U63 - shift)  # never a shift by the full 64 bits
    return text.T, rest


def _percent_g(v: np.ndarray) -> np.ndarray:
    """The cells ``b"%.17g" % x`` of the values ``v``, NUL-padded, as rows of three words."""
    return np.array([b"%.17g" % x for x in v.tolist()], dtype=f"S{_CELL}").view("<u8").reshape(-1, 3)


#: Values up to which ``%.17g`` one at a time is faster than :func:`_cells`,
#: whose fixed cost is about that of 200 of them.
_FEW_VALUES = 128

#: At most this many values per :func:`_cells` call, for :func:`format_rows`
#: and :func:`value_table` alike, and about the plain values of a
#: :func:`csv_chunks` chunk.  A call's temporaries take about 300 bytes a
#: value, and where freed heap is reused, as after an integration, each call
#: costs about 58 us more than its values (on a 12-column simulate chunk,
#: one pass of 12 288 took 0.91-0.93 ms and three of 4096 1.03-1.09 ms).
#: ``bench/run.py --seconds 25`` on a shared 2-vCPU VM, two runs each: with
#: passes of 4096, simulate read ``run_s`` 0.519-0.527 s and
#: ``peak_rss_mib`` 61.0, against 0.496-0.502 s and 60.1-60.3 at one pass
#: per chunk; with 12 288 the sweep's peak rose from 49.7 to 50.1-50.2 MiB;
#: with 8192 simulate read 0.514-0.518 s and 60.2 MiB, the sweep 49.8-50.0.
_PASS_VALUES = 8192


def cell_table(values: np.ndarray) -> np.ndarray:
    """The cell of each float64 value, ``"%.17g" % x`` NUL-padded to three words: one C-ordered row per value.

    The values are formatted in passes of at most ``_PASS_VALUES``.
    """
    if values.size <= _FEW_VALUES:
        return _percent_g(values)
    cells = np.empty((values.size, 3), np.uint64)
    for lo in range(0, values.size, _PASS_VALUES):
        part = values[lo : lo + _PASS_VALUES]
        cells[lo : lo + part.size], rest = _cells(part)
        if rest.size:
            cells[lo + rest] = _percent_g(part[rest])
    return cells


def _slots(text: np.ndarray, used: int, sep: bytes) -> np.ndarray:
    """The rows of ``text`` cut to ``used`` bytes and ended by ``sep``, one void entry each: a slot table; read-only.

    A row of ``text`` holds one cell, left-aligned and NUL-padded, no longer
    than ``used`` bytes.  The separator takes the first padding byte of each
    row, so the table shares ``text``'s memory unless a cell fills its row.
    """
    rows, width = text.shape
    if used == width:
        text = np.concatenate([text, np.zeros((rows, 1), np.uint8)], axis=1)
    text[:, used] = ord(sep)
    table = np.ndarray((rows,), f"V{used + 1}", text, 0, (text.strides[0],))
    table.flags.writeable = False
    return table


def label_table(names: Sequence[str], sep: bytes) -> np.ndarray:
    """Entry k is ``names[k]`` in UTF-8, NUL-padded to the longest name, and ``sep``: a slot table.

    Raises ``ValueError`` when a name contains NUL.
    """
    encoded = [s.encode("utf-8") for s in names]
    if any(b"\0" in s for s in encoded):
        raise ValueError("a text column must not contain NUL")
    longest = max(map(len, encoded), default=0)
    text = np.array(encoded, dtype=f"S{longest + 1}").view(np.uint8).reshape(-1, longest + 1)
    return _slots(text, longest, sep)


def _cell_slots(words: np.ndarray, sep: bytes) -> np.ndarray:
    """The cells ``words`` of :func:`cell_table`, NUL-padded to the longest and ended by ``sep``: a slot table."""
    # a cell is a prefix of its row, so the longest ends at the highest
    # nonzero byte of the largest value of the last word any cell reaches
    used = 0
    for k in (2, 1, 0):
        top = int(words[:, k].max(initial=0))
        if top:
            used = 8 * k + (top.bit_length() + 7) // 8
            break
    return _slots(words.view(np.uint8), used, sep)


def value_table(values: np.ndarray, sep: bytes) -> np.ndarray:
    """Entry k is ``"%.17g" % values[k]``, NUL-padded to the longest cell, and ``sep``: a slot table.

    The cells take ``_CELL`` bytes an entry, which the table shares.
    """
    return _cell_slots(cell_table(values), sep)


def format_rows(columns: list[np.ndarray | tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The CSV rows of ``columns``, as UTF-8 bytes.

    A column is either a float64 array, whose cells ``"%.17g" % x`` are
    formatted here, or a pair ``(table, index)`` of a slot table
    (:func:`value_table`, :func:`label_table`) and one entry of it per CSV
    row; the last column's table must end its entries with a newline.
    Indices are not checked.  All columns have the same number of rows.

    The plain columns are formatted in one :func:`cell_table` call, and
    each becomes a slot table of its own, one entry per row, as wide as its
    longest cell in these rows; then each column's entries are copied into
    the rows, one column at a time.
    """
    plain = [col for col in columns if isinstance(col, np.ndarray)]
    cells = iter(cell_table(np.concatenate(plain)).reshape(len(plain), -1, 3) if plain else [])
    rows = len(plain[0]) if plain else columns[0][1].shape[0]
    last = len(columns) - 1
    # (table, index) per column; a plain column's table holds its rows, all taken by the index ...
    slots = [
        (_cell_slots(next(cells), b"\n" if j == last else b","), ...) if isinstance(col, np.ndarray) else col
        for j, col in enumerate(columns)
    ]
    buf = np.empty((rows, sum(table.itemsize for table, _ in slots)), np.uint8)  # every slot fills all its bytes
    at = 0
    for table, index in slots:
        np.ndarray((rows,), table.dtype, buf, at, (buf.shape[1],))[...] = table[index]
        at += table.itemsize
    flat = buf.ravel()
    return flat[flat != 0]


@dataclass(frozen=True)
class CodedColumn:
    """A CSV column given as a table of values and one index into it per row: ``values[index]``.

    Like a plain column it has a ``shape`` of ``(rows,)`` and a ``len``.
    """

    values: Sequence
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.index.shape

    def __len__(self) -> int:
        return self.index.shape[0]


#: A chunk of :func:`csv_chunks` holds about one pass of plain values, in at
#: least this many rows.
_CHUNK_ROWS = 1024


def csv_chunks(header: list[str], columns: list[np.ndarray | CodedColumn]) -> Iterator[bytes | np.ndarray]:
    """The header line, then the rows of ``columns``, a chunk of rows at a time.

    A column is an array of numbers or a :class:`CodedColumn`, whose table
    holds numbers or, for a text column, ``str``.  The input is checked,
    and each table formatted once, here, before the first chunk is taken;
    the plain columns of a chunk are formatted with it, each into a slot
    table as wide as its widest cell in the chunk (:func:`format_rows`).

    A chunk holds ``max(_CHUNK_ROWS, _PASS_VALUES // max(p, 1))`` rows for
    ``p`` plain columns, 1024 to 8192 rows: about one pass of
    :func:`_cells`, whose fixed cost of about 45 numpy calls 1024 values do
    not repay (on a 2-vCPU VM, :func:`cell_table` took 259 us on 1024
    values, against 133 us per 1024 values in one call of 4096).  A sweep,
    whose columns are all coded, writes 8192-row chunks; a simulate table
    of 8 or more columns keeps 1024 rows, since 2048-row chunks ran no
    faster and raised the simulate benchmark's peak RSS by 1.2 MiB.  The
    bytes do not depend on the chunk size.
    """
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    rows = columns[0].shape[0]
    if any(len(col) != rows for col in columns):
        raise ValueError("column lengths differ")
    columns = list(columns)
    tables: list[np.ndarray | None] = [None] * len(columns)
    for j, col in enumerate(columns):
        sep = b"\n" if j == len(columns) - 1 else b","
        if not isinstance(col, CodedColumn):
            columns[j] = np.asarray(col)
            if columns[j].dtype.kind not in "biuf":
                raise TypeError("a plain column holds real numbers; give text as a CodedColumn of str")
            continue
        index = col.index
        if not (isinstance(index, np.ndarray) and index.dtype.kind in "iu" and index.ndim == 1):
            raise ValueError("the index of a coded column must be a 1-D integer array")
        if rows and (index.min() < 0 or index.max() >= len(col.values)):
            raise ValueError("the index of a coded column must lie within its table")
        # the slot table, each entry formatted once
        if all(isinstance(v, str) for v in col.values):
            tables[j] = label_table(col.values, sep)
        else:
            tables[j] = value_table(np.asarray(col.values, dtype=float), sep)
    chunk_rows = max(_CHUNK_ROWS, _PASS_VALUES // max(sum(table is None for table in tables), 1))

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        if not rows:
            return
        for lo in range(0, rows, chunk_rows):
            hi = lo + chunk_rows
            yield format_rows(
                [
                    np.asarray(col[lo:hi], dtype=float) if table is None else (table, col.index[lo:hi])
                    for col, table in zip(columns, tables)
                ]
            )

    return chunks()
