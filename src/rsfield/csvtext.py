"""CSV text of column tables, with every float exactly as ``f"{v:.17g}"``.

CPython prints a float with 17 significant digits through its bignum
``dtoa``, about 0.8 us per value.  A table of floats and booleans takes its
text from a few numpy passes instead, byte for byte the same, whatever its
size; a table with any other column (str or int) is written one value at a
time.

* **Digits.**  For a finite x with |x| in ``RANGE`` and k = floor(log10 |x|),
  the 17 digits are the integer D = round-half-even(|x| 10^(16-k)).  The
  product is taken in double-double arithmetic: 10^(16-k) is hi + lo, built
  from Python integers (whose conversion to float and true division round
  correctly), and Dekker's two-product gives |x| hi exactly, so the product's
  error is about 5e-15 against a rounding fraction in [0, 1).  k is fixed
  from the unrounded product, which must lie in [10^16, 10^17), and moves up
  by one when D rounds to 10^17, as in ``%g``.
* **Fallback.**  A value whose rounding fraction lies within ``TIE_MARGIN``
  of one half (exact ties such as 100 + 2**-15 among them), or that is nan,
  infinite or nonzero outside ``RANGE``, takes ``f"{v:.17g}"`` itself.
* **Layout.**  As in ``%g``: fixed notation for -4 <= k < 17, exponent
  notation with at least two exponent digits otherwise, trailing zeros and a
  bare point trimmed.  The digits are looked up three at a time; a layout
  (booleans included) lists the bytes of a value's source row that make its
  text and separator, so a table's cells are one gather, padded with a byte
  that never occurs in text, and its lines are those cells with the pad
  dropped.  A layout is built the first time it occurs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CHUNK = 4096  # values per pass, which bounds the temporaries
TIE_MARGIN = 1e-6
RANGE = (1e-280, 1e280)
WIDTH = 24  # the widest float text: "-1.2345678901234567e-123"

# A value's source row is eleven 4-byte cells: the 17 digits of D in cells
# 0-5 (three ASCII digits each, the leading two after a '0' in cell 0), the
# exponent's three digits in cell 6, then ".e+-", "0" with the separator and
# two pad bytes, "fals" and "true".  Cell j < 7 is _CELL[1000 j + digits];
# the names below are byte positions in that row.
_DIGIT = [1, 2, *(4 * (j // 3 + 1) + j % 3 for j in range(15))]
_EXP, _DOT, _E, _PLUS, _MINUS, _ZERO, _SEP, _PAD = 24, 28, 29, 30, 31, 32, 33, 34
_FALSE, _TRUE = [36, 37, 38, 39, _E], [40, 41, 42, 43]
_ROW = 44
_FILL = 0xFF  # the pad byte; UTF-8 text never holds it

_CELL = np.tile(np.frombuffer(b"".join(b"%03d\0" % i for i in range(1000)), np.uint32), 7)
# cells 7-10 before a ',' and before a '\n'
_TAIL = np.frombuffer(b".e+-0,\xff\xfffalstrue.e+-0\n\xff\xfffalstrue", np.uint32).reshape(2, 4)
# the digits D keeps once its trailing zeros are trimmed, if cell j holds its
# last nonzero digit
_g = np.arange(1000)
_KEPT = np.where(
    _g == 0, 0, 2 + 3 * np.arange(6)[:, None] - (_g % 10 == 0) - (_g % 100 == 0)
).ravel()

# layout = (28 negative + code) 17 + kept - 1, with code k + 4 in fixed
# notation, 21 + 2 (k < 0) + (|k| >= 100) in exponent notation, 25 for zero,
# 26 for false and 27 for true
_NEGATIVE = 28 * 17
_K = 400  # _CODE17 is indexed by k + _K; index 0 stands for zero
_k = np.arange(-_K, _K)
_CODE17 = 17 * np.where((_k >= -4) & (_k < 17), _k + 4, 21 + 2 * (_k < 0) + (abs(_k) >= 100))
_CODE17[0] = 17 * 25
_CODE17 -= 1
del _g, _k

_TABLE = np.zeros((2 * _NEGATIVE, WIDTH + 1), dtype=np.intp)
_BUILT = np.zeros(2 * _NEGATIVE, dtype=bool)

# 10^e as hi + lo, and the halves of hi, for e in [-_K, _K); filled on first use
_POW = np.zeros((4, 2 * _K))
_POW_BUILT = np.zeros(2 * _K, dtype=bool)


def _layout_row(layout: int) -> list:
    """The source bytes of a layout's text, its separator and the pad."""
    kept, code, negative = layout % 17 + 1, layout // 17 % 28, layout // _NEGATIVE
    digits = _DIGIT[:kept]
    src = [_MINUS] if negative else []
    if code >= 25:
        src += ([_ZERO], _FALSE, _TRUE)[code - 25]
    elif code >= 21:
        src.append(digits[0])
        if kept > 1:
            src += [_DOT, *digits[1:]]
        src += [_E, _MINUS if code >= 23 else _PLUS, *range(_EXP + code % 2, _EXP + 3)]
    elif code >= 4:
        src += _DIGIT[: code - 3]
        if kept > code - 3:
            src += [_DOT, *digits[code - 3:]]
    else:
        src += [_ZERO, _DOT, *[_ZERO] * (3 - code), *digits]
    return [*src, _SEP, *[_PAD] * (WIDTH - len(src))]


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(e: int) -> tuple:
    """10^e as hi + lo, and the halves of hi."""
    if e >= 0:
        p = 10**e
        hi = float(p)
        lo = float(p - int(hi))
    else:
        q = 10**-e
        hi = 1 / q
        a, b = hi.as_integer_ratio()
        lo = (b - a * q) / (b * q)
    return hi, lo, *_split(hi)


def _scaled(a: np.ndarray, e: np.ndarray):
    """a 10^e as an integer part and a fraction in [0, 1), exact up to about
    5e-15 where a 10^e lies in [10^16, 10^17); outside, the integer part is
    still on the same side of that range."""
    span = slice(int(e.min()) + _K, int(e.max()) + _K + 1)
    if not _POW_BUILT[span].all():
        _POW[:, span] = np.array([_pow10(i - _K) for i in range(span.start, span.stop)]).T
        _POW_BUILT[span] = True
    hi, lo, bh, bl = _POW.take(e + _K, axis=1)
    p = a * hi
    ah, al = _split(a)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    r = err + a * lo
    n = np.floor(r)
    # p >= 2^53 is an integer in the range that is kept
    return p.astype(np.int64) + n.astype(np.int64), r - n


def _outside(whole: np.ndarray) -> np.ndarray:
    """Whether an integer part lies outside [10^16, 10^17)."""
    return (whole - 10**16).view(np.uint64) >= 9 * 10**16


def _digits(a: np.ndarray):
    """(D, k, exact) for ``a`` inside ``RANGE``: a ~ D 10^(k-16) with
    10^16 <= D < 10^17, and whether D is the correctly rounded one (the
    fraction is clear of one half)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, 16 - k)
    # log10 may miss k by one next to a power of ten
    moved = np.flatnonzero(_outside(whole))
    if moved.size:
        k[moved] += np.where(whole[moved] < 10**16, -1, 1)
        whole[moved], frac[moved] = _scaled(a[moved], 16 - k[moved])
        frac[moved[_outside(whole[moved])]] = 0.5  # left to the fallback
    exact = np.abs(frac - 0.5) >= TIE_MARGIN
    d = whole + (frac > 0.5)
    up = d == 10**17
    d[up] = 10**16
    return d, k + up, exact


def _lines(table: np.ndarray, boolean: np.ndarray) -> bytes:
    """The CSV lines of a float table, shape (rows, columns), whose columns
    marked in ``boolean`` hold booleans as 0 and 1."""
    rows, cols = table.shape
    x = table.ravel()
    a = np.abs(x)
    inside = (a >= RANGE[0]) & (a <= RANGE[1])  # nan is outside
    safe = a.copy()
    safe[~inside] = 1.0
    d, k, exact = _digits(safe)
    # D's groups of three digits, last first, then the exponent
    cells = np.empty((7, x.size), dtype=np.intp)
    for j in range(5, 0, -1):
        q = d // 1000
        cells[j] = d - 1000 * q + 1000 * j
        d = q
    cells[0] = d
    cells[6] = np.abs(k) + 6000
    src = np.empty((x.size, _ROW // 4), dtype=np.uint32)
    src[:, :7] = _CELL.take(cells).T
    newline = np.arange(cols) == cols - 1
    src.reshape(rows, cols, -1)[:, :, 7:] = _TAIL[newline.astype(np.intp)]
    # each cell's layout: notation, digits kept and sign; booleans by value
    k[a == 0.0] = -_K
    layout = _CODE17.take(k + _K) + _KEPT.take(cells[:6]).max(axis=0)
    layout += np.signbit(x) * _NEGATIVE
    if boolean.any():
        layout.reshape(rows, cols)[:, boolean] = 17 * (26 + table[:, boolean]).astype(np.intp)
    missing = ~_BUILT.take(layout)
    if missing.any():
        new = sorted(set(layout[missing].tolist()))
        _TABLE[new] = [_layout_row(i) for i in new]
        _BUILT[new] = True
    # one gather: every cell's text, separator and pad
    index = _TABLE.take(layout, axis=0)
    index += np.arange(0, x.size * _ROW, _ROW)[:, None]
    text = src.view(np.uint8).ravel().take(index)
    for i in np.flatnonzero(~(inside & exact) & (a != 0.0)):
        value = (f"{x[i]:.17g}" + ("\n" if newline[i % cols] else ",")).encode()
        text[i] = _FILL
        text[i, : len(value)] = np.frombuffer(value, dtype=np.uint8)
    return text[text != _FILL].tobytes()


def _words(values: np.ndarray) -> list:
    """The text of each value of a column: floats with 17 significant digits,
    booleans as true/false, anything else as ``str``."""
    if values.dtype.kind == "f":
        return [f"{v:.17g}" for v in values.tolist()]
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def write_csv(path: Path, columns: dict) -> None:
    """Write ``columns`` (name -> values, lists or arrays, one per row) as CSV:
    floats with 17 significant digits, booleans as true/false, the rest as
    ``str``; a column's kind is its array's dtype."""
    arrays = [np.asarray(v) for v in columns.values()]
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        if not {v.dtype.kind for v in arrays} <= {"f", "b"}:
            lines = zip(*map(_words, arrays))
            fh.write("".join(",".join(line) + "\n" for line in lines).encode())
            return
        table = np.stack(arrays, axis=1, dtype=np.float64)
        boolean = np.array([v.dtype.kind == "b" for v in arrays])
        step = max(1, CHUNK // len(arrays))
        for start in range(0, len(table), step):
            fh.write(_lines(table[start: start + step], boolean))
