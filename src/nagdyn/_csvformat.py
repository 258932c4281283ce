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
record.  A row is a run of 25-byte slots, one cell and its separator
each, padded with NUL; dropping the NUL bytes leaves the CSV text.

A column may also be a :class:`CodedColumn`, a table of values and one
index into it per row (dictionary encoding: Abadi, Madden & Ferreira,
SIGMOD 2006).  :func:`csv_chunks` formats each table entry once per
write, and each row of a chunk gathers its cell.  Up to ``_FEW_VALUES``
values, ``%.17g`` one value at a time is faster than the array path and
formats them.
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
_CELL = 24  # bytes of text in a slot: the longest "%.17g" output
_SLOT = _CELL + 1  # and its separator

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
    """The cells of the values ``v`` as three rows of words, and the indices left for ``%.17g``.

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
    return text, rest


def _percent_g(v: np.ndarray) -> np.ndarray:
    """The cells ``b"%.17g" % x`` of the values ``v``, NUL-padded, as rows of three words."""
    return np.array([b"%.17g" % x for x in v.tolist()], dtype=f"S{_CELL}").view("<u8").reshape(-1, 3)


#: Values up to which ``%.17g`` one at a time is faster than :func:`_cells`,
#: whose fixed cost is about that of 200 of them.
_FEW_VALUES = 128


def cell_table(values: np.ndarray) -> np.ndarray:
    """The cell of each float64 value, ``"%.17g" % x`` NUL-padded to three words: one row per value."""
    if values.size <= _FEW_VALUES:
        return _percent_g(values)
    text, rest = _cells(values)
    cells = text.T
    if rest.size:
        cells[rest] = _percent_g(values[rest])
    return cells


def label_table(names: Sequence[str]) -> np.ndarray:
    """Row k is ``names[k]`` in UTF-8 and a newline, NUL-padded to the longest name; read-only.

    Raises ``ValueError`` when a name contains NUL.
    """
    encoded = [s.encode("utf-8") for s in names]
    if any(b"\0" in s for s in encoded):
        raise ValueError("labels must not contain NUL")
    slot = max(map(len, encoded), default=0) + 1
    return np.frombuffer(b"".join(s.ljust(slot - 1, b"\0") + b"\n" for s in encoded), np.uint8).reshape(-1, slot)


def format_rows(
    columns: list[np.ndarray | tuple[np.ndarray, np.ndarray]], labels: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """The CSV rows of ``columns`` and an optional last text column ``labels``, as UTF-8 bytes.

    A column is either a float64 array, whose cells ``"%.17g" % x`` are
    formatted here, or a pair ``(cells, index)`` of a :func:`cell_table`
    and one row of it per CSV row.  ``labels`` is a pair ``(table, codes)``
    of a :func:`label_table` and one row of it per CSV row.  Indices are
    not checked.  All columns have the same number of rows.
    """
    first = columns[0]
    rows, ncols = (first if isinstance(first, np.ndarray) else first[1]).shape[0], len(columns)
    width = ncols * _SLOT + (0 if labels is None else labels[0].shape[1])
    buf = np.zeros((rows, width), np.uint8)
    words = np.ndarray((rows, ncols, 3), "<u8", buf, 0, (width, _SLOT, 8))
    seps = np.ndarray((rows, ncols), np.uint8, buf, _CELL, (width, _SLOT))
    seps[:] = ord(",")
    if labels is None:
        seps[:, -1] = ord("\n")
    else:
        buf[:, ncols * _SLOT :] = labels[0][labels[1]]

    plain = []
    for j, col in enumerate(columns):
        if isinstance(col, np.ndarray):
            plain.append(j)
        else:
            words[:, j] = col[0][col[1]]
    if plain:
        # the plain columns one after another: one pass, whatever their count
        cells = cell_table(np.concatenate([columns[j] for j in plain]))
        at = plain if len(plain) < ncols else slice(None)
        words[:, at] = cells.T.reshape(3, len(plain), rows).transpose(2, 1, 0)
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


def csv_chunks(
    header: list[str],
    columns: list[np.ndarray | CodedColumn],
    labels: CodedColumn | None,
    chunk_rows: int,
) -> Iterator[bytes | np.ndarray]:
    """The header line, then the rows of ``columns`` and ``labels``, ``chunk_rows`` rows at a time.

    A column is a float array or a :class:`CodedColumn`, and ``labels`` a
    :class:`CodedColumn` of str.  The input is checked, and each table
    formatted once, here, before the first chunk is taken.
    """
    if labels is not None and not isinstance(labels, CodedColumn):
        raise TypeError("labels must be a CodedColumn")
    if len(header) != len(columns) + (labels is not None):
        raise ValueError("header and column counts differ")
    rows = columns[0].shape[0]
    if any(len(col) != rows for col in columns) or (labels is not None and len(labels) != rows):
        raise ValueError("column and label lengths differ")
    for col in (*columns, labels):
        if isinstance(col, CodedColumn):
            index = col.index
            if not (isinstance(index, np.ndarray) and index.dtype.kind in "iu" and index.ndim == 1):
                raise ValueError("the index of a coded column must be a 1-D integer array")
            if rows and (index.min() < 0 or index.max() >= len(col.values)):
                raise ValueError("the index of a coded column must lie within its table")
    label_cells = None if labels is None else label_table(labels.values)
    # the cells of every table, in one pass
    coded = [j for j, col in enumerate(columns) if isinstance(col, CodedColumn)]
    cells: list[np.ndarray | None] = [None] * len(columns)
    if coded:
        tables = [np.asarray(columns[j].values, dtype=float) for j in coded]
        table_cells, lo = np.ascontiguousarray(cell_table(np.concatenate(tables))), 0
        for j, table in zip(coded, tables):
            cells[j] = table_cells[lo : lo + table.size]
            lo += table.size

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        for lo in range(0, rows, chunk_rows):
            hi = lo + chunk_rows
            cols = [
                np.asarray(col[lo:hi], dtype=float) if table is None else (table, col.index[lo:hi])
                for col, table in zip(columns, cells)
            ]
            yield format_rows(cols, None if labels is None else (label_cells, labels.index[lo:hi]))

    return chunks()
