"""CSV rows of numbers as UTF-8 bytes, formatted a chunk of cells at a time
in numpy.

Numbers are written as ``'%.15g' % v`` would write them, byte for byte.
Each cell's 15-digit integer and decimal exponent ``e`` come from the
product ``|x| 10^(14 - e)``, with ``e`` estimated by ``log10``, taken as a
double-double (Dekker, "A floating-point technique for extending the
available precision", 1971): ``x`` and a ``10^k`` table entry, held as a
hi/lo pair, are split into 26-bit halves whose partial products are
exact, so the scaled value is known to about 1e-16.  That decides the
rounding of every cell whose remainder lies farther than ``_TIE`` from one
half.  As in Grisu (Loitsch, PLDI 2010), a cell the fast path cannot prove
keeps the scalar ``'%.15g' % v``: a near tie, a non-finite value, a
magnitude outside ``[1e-44, 1e44)``, or a value next to a power of ten
whose ``log10`` estimate missed by one.

The ``%g`` layout goes into fixed byte slots padded with NUL, one column
of slots per cell: the sign, the ``0.000`` prefix of a small fixed-point
number, 15 digits with the point inserted, and the exponent ``e±XX``.
Digits after the last nonzero one, and a point with no digit after it,
become NUL.  The sign, prefix and exponent places are written only when
some cell of the chunk needs them, and every place no cell uses is
dropped; the rest are copied to cell-major order about ``_PAGE`` bytes at
a time, and one ``bytes.translate`` of each page deletes the NULs.

Every chunk-sized intermediate lives in one workspace per chunk,
``_CELL_BYTES`` (93) bytes a cell, written by ``out=`` and in-place
ufuncs, so that formatting a chunk makes one allocation besides its
pages.  Nothing is kept between chunks: the workspace is freed once the
chunk's last page has been yielded.
"""

from __future__ import annotations

import numpy as np

#: Dekker's splitter 2^27 + 1: ``c - (c - a)`` with ``c = a * _SPLIT`` keeps
#: the high 26 bits of ``a``
_SPLIT = 134217729.0
#: fast-path magnitudes; their scale factors ``10^(14 - e)`` stay in the table
_FAST_MIN, _FAST_MAX = 1e-44, 1e44
#: a cell whose scaled remainder is this close to 1/2 may be a rounding tie
_TIE = 1e-9
#: bytes per numeric slot: sign, ``0.000`` prefix, 16 digit/point places,
#: ``e±XX``
_SLOT = 26
#: cell-major bytes handed to one ``bytes.translate``
_PAGE = 1 << 15
#: workspace bytes per cell: six float rows, a table index, nine flag rows
#: and the slots with their two separator places
_CELL_BYTES = 6 * 8 + 8 + 9 + _SLOT + 2
#: cells formatted at a time, so a long table is never held as text; their
#: workspace and pages keep a whole write's traced memory under 1 MiB
_CSV_CELLS = 9216
_PLACE = np.arange(16, dtype=np.uint8)[:, None]
_COUNT = _PLACE + 1
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_PLACE = np.arange(5, dtype=np.int8)[:, None]
_CRLF = np.array([[ord("\r")], [ord("\n")]], np.uint8)


def _pow10_table(lo: int = -60, hi: int = 60):
    """``10^k`` for ``k`` in ``[lo, hi]`` as hi/lo doubles from exact ints:
    the arrays ``hi``, its split halves ``hi_hi`` and ``hi_lo``, and ``lo``,
    then the index of ``k = 0``.

    ``int / int`` is correctly rounded, so ``hi`` is the double nearest
    ``10^k`` and ``lo`` the double nearest ``10^k - hi``.
    """
    rows = []
    for k in range(lo, hi + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        head = num / den
        n, d = head.as_integer_ratio()
        rows.append((head, (num * d - n * den) / (den * d)))
    head, tail = np.array(rows).T
    c = _SPLIT * head
    head_hi = c - (c - head)
    return head, head_hi, head - head_hi, tail, -lo


def _quad_digits() -> np.ndarray:
    """The ASCII digits of 0000 ... 9999 as a ``(4, 10000)`` uint8 array,
    one row per digit place."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                          np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    return quads.view(np.uint8).reshape(10000, 4).T.copy()


_P_HI, _P_HI_HI, _P_HI_LO, _P_LO, _K0 = _pow10_table()
_QUAD_DIGITS = _quad_digits()


def _workspace(n: int):
    """A new workspace for a chunk of ``n`` cells, cut into contiguous
    views of one byte array: six float rows (the values ``x`` and five
    scratch rows), a table index, nine flag rows, and the ``(_SLOT + 2, n)``
    cell bytes with their separator places.  Float rows 2-3 later hold the
    16 digit bytes of each cell and rows 4-5 a 16-place mask, once the
    floats there are spent.
    """
    need = n * _CELL_BYTES
    block = np.empty(need, np.uint8)
    return (block[:48 * n].view(np.float64).reshape(6, n),
            block[48 * n:56 * n].view(np.intp),
            block[56 * n:65 * n].reshape(9, n),
            block[65 * n:need].reshape(_SLOT + 2, n))


def _bytes16(rows: np.ndarray) -> np.ndarray:
    """Two float rows seen as 16 byte rows of their cells."""
    return rows.view(np.uint8).reshape(16, rows.shape[1])


def _scaled(a, i, p, c, u, h) -> None:
    """``floor(a 10^k)`` into ``c`` and the remainder in ``[0, 1)`` into
    ``p``, accurate to about 1e-16 while ``a 10^k`` stays below 2^50; ``i``
    holds ``k + _K0``, and ``u`` and ``h`` are scratch."""
    _P_HI.take(i, out=p, mode="clip")
    p *= a
    np.multiply(_SPLIT, a, out=c)
    np.subtract(c, a, out=u)
    c -= u  # the high half ah of a; al = a - ah
    # lo = (((ah phh - p) + ah phl + al phh) + al phl) + a lo(10^k)
    _P_HI_HI.take(i, out=u, mode="clip")
    u *= c
    u -= p
    _P_HI_LO.take(i, out=h, mode="clip")
    h *= c
    u += h
    np.subtract(a, c, out=c)
    for table, half in ((_P_HI_HI, c), (_P_HI_LO, c), (_P_LO, a)):
        table.take(i, out=h, mode="clip")
        h *= half
        u += h
    np.floor(p, out=c)
    p -= c
    p += u  # r = (p - floor) + lo
    np.floor(p, out=h)
    c += h
    p -= h


def _decimal(x, floats, i, flags):
    """``|x|`` rounded to ``digits 10^(e - 14)``, with ``digits`` a 15-digit
    integer (as a float) and ``e`` an int8, where the fast path proves the
    rounding; and the mask of those cells.  Zeros give ``digits = e = 0``
    and count as proven; the other unproven cells get zeros too.

    ``floats`` are five scratch rows, ``digits`` is returned in the third;
    ``e`` and the mask are the flag rows 0 and 2, and rows 1 and 3 are
    scratch."""
    a, p, c, u, h = floats
    e = flags[0].view(np.int8)
    proven, done, tmp = flags[1:4].view(bool)
    np.abs(x, out=a)
    np.greater_equal(a, _FAST_MIN, out=proven)
    np.less(a, _FAST_MAX, out=tmp)
    proven &= tmp
    np.equal(a, 0.0, out=done)
    np.fmax(a, _FAST_MIN, out=a)
    np.fmin(a, _FAST_MAX, out=a)
    np.log10(a, out=p)
    np.floor(p, out=p)
    np.copyto(e, p, casting="unsafe")
    np.subtract(14.0 + _K0, p, out=p)
    np.copyto(i, p, casting="unsafe")
    _scaled(a, i, p, c, u, h)
    # where log10 missed by one, next to a power of ten, the floor has 14 or
    # 16 digits and the cell is left to the scalar path
    np.greater_equal(c, 1e14, out=tmp)
    proven &= tmp
    np.less(c, 1e15, out=tmp)
    proven &= tmp
    np.subtract(p, 0.5, out=h)
    np.abs(h, out=h)
    np.greater_equal(h, _TIE, out=tmp)
    proven &= tmp
    # round half up: a proven remainder is farther than _TIE from 1/2, so
    # floor(rem + 1/2) is exactly (rem > 1/2)
    np.add(p, 0.5, out=h)
    np.floor(h, out=h)
    c += h
    np.logical_not(proven, out=tmp)
    c[tmp] = 0.0
    e *= proven.view(np.int8)
    np.equal(c, 1e15, out=tmp)  # rounding carried into a 16th digit
    c[tmp] = 1e14
    e += tmp.view(np.int8)
    done |= proven
    return c, e, done


def _digit_bytes(digits, floats, i) -> np.ndarray:
    """The 15 ASCII digits of each integer in ``digits`` (float row 3 of
    ``floats``), then a ``0``, as a ``(16, n)`` uint8 view of rows 2-3;
    rows 1, 4 and 5 are scratch."""
    _, high, _, _, low, group = floats
    d = _bytes16(floats[2:4])
    np.divide(digits, 1e7, out=high)
    np.floor(high, out=high)
    np.multiply(high, 1e7, out=low)
    np.subtract(digits, low, out=low)
    low *= 10.0
    # four groups of four digits, each written as soon as it is cut off
    for place, part in ((0, high), (8, low)):
        np.divide(part, 1e4, out=group)
        np.floor(group, out=group)
        np.copyto(i, group, casting="unsafe")
        _QUAD_DIGITS.take(i, axis=1, out=d[place:place + 4], mode="clip")
        group *= 1e4
        np.subtract(part, group, out=group)
        np.copyto(i, group, casting="unsafe")
        _QUAD_DIGITS.take(i, axis=1, out=d[place + 4:place + 8], mode="clip")
    return d


def _g15_slots(out, floats, i, flags) -> None:
    """Write ``'%.15g' % v`` for each float of ``floats[0]`` into ``out``,
    a ``(_SLOT, n)`` uint8 array whose sign, prefix and exponent places are
    zero, as NUL-padded byte slots, one column per cell."""
    x = floats[0]
    _, e, done = _decimal(x, floats[1:], i, flags)
    d = _digit_bytes(floats[3], floats, i)
    mask = _bytes16(floats[4:6])
    hit = mask.view(bool)
    # flag rows 1 and 4 are taken over once the proven and fixed flags are spent
    expo, fixed, whole, small = (flags[j].view(bool) for j in (1, 4, 5, 6))
    tmp, p, kept = flags[3], flags[7], flags[8]
    np.greater_equal(e, -4, out=fixed)
    np.less(e, 15, out=whole)
    fixed &= whole
    np.greater_equal(e, 0, out=whole)
    whole &= fixed
    np.less(e, 0, out=small)
    small &= fixed
    np.logical_not(fixed, out=expo)
    # the point goes after digit p: the integer digits, one digit before an
    # exponent, or past the last digit when a small number's prefix holds it
    np.add(e, 1, out=p.view(np.int8))
    p *= whole.view(np.uint8)
    np.multiply(small.view(np.uint8), 15, out=tmp)
    p += tmp
    p += expo.view(np.uint8)
    # the digits kept: up to the last nonzero one, and every integer digit
    np.greater(d, ord("0"), out=hit)
    mask *= _COUNT
    np.maximum.reduce(mask, axis=0, out=kept)
    np.multiply(p, whole.view(np.uint8), out=tmp)
    np.maximum(kept, tmp, out=kept)
    # the places kept: those digits, and the point if a digit follows it
    np.greater(kept, p, out=tmp.view(bool))
    kept += tmp
    body = out[6:22]
    np.less(_PLACE, p, out=hit)
    np.multiply(mask, d, out=body)
    np.greater(_PLACE[1:], p, out=hit[1:])
    mask[1:] *= d[:15]
    body[1:] += mask[1:]
    np.equal(_PLACE, p, out=hit)
    mask *= ord(".")
    body += mask
    np.less(_PLACE, kept, out=hit)
    body *= mask
    neg = fixed
    np.signbit(x, out=neg)
    if neg.any():
        np.multiply(neg.view(np.uint8), ord("-"), out=out[0])
    if small.any():
        np.subtract(1, e, out=tmp.view(np.int8))
        tmp *= small.view(np.uint8)
        np.less(_PREFIX_PLACE, tmp.view(np.int8), out=hit[:5])
        np.multiply(mask[:5], _PREFIX, out=out[1:6])
    if expo.any():
        on = expo.view(np.uint8)
        np.multiply(on, ord("e"), out=out[22])
        np.less(e, 0, out=tmp.view(bool))
        np.multiply(tmp, 2, out=out[23])
        out[23] += ord("+")
        np.abs(e, out=tmp.view(np.int8))
        np.floor_divide(tmp, 10, out=out[24])
        np.remainder(tmp, 10, out=out[25])
        out[24:26] += ord("0")
        out[23:26] *= on
    np.logical_not(done, out=tmp.view(bool))
    for k in tmp.nonzero()[0]:
        text = ("%.15g" % x[k]).encode()
        out[:, k] = 0
        out[:len(text), k] = np.frombuffer(text, np.uint8)


def csv_rows(columns: list):
    """Yield the CRLF-terminated CSV rows of equal-length 1-D numeric
    columns, read as float64, as UTF-8 bytes: ``_CSV_CELLS`` cells are
    formatted at a time and yielded a page of whole cells at a time."""
    step = max(1, _CSV_CELLS // max(1, len(columns)))
    for lo in range(0, len(columns[0]) if columns else 0, step):
        yield from _pages([c[lo:lo + step] for c in columns])


def _pages(columns: list):
    """The byte pages of :func:`csv_rows` for one chunk of numeric
    ``columns``."""
    rows, width = len(columns[0]), len(columns)
    n = rows * width
    floats, i, flags, cells = _workspace(n)
    # place-major: byte place, then row, then column, so that each numpy
    # operation runs along a whole chunk of cells
    cells[:6] = 0
    cells[22:] = 0
    values = floats[0].reshape(rows, width)
    for j, column in enumerate(columns):
        values[:, j] = column
    _g15_slots(cells[:_SLOT], floats, i, flags)
    grid = cells.reshape(_SLOT + 2, rows, width)
    grid[_SLOT, :, :-1] = ord(",")
    grid[_SLOT:, :, -1] = _CRLF
    keep = np.maximum.reduce(cells, axis=1).nonzero()[0]
    step = _PAGE // len(keep)
    for lo in range(0, n, step):
        # the fancy index copies, and tobytes writes its transpose in C order
        yield cells[keep, lo:lo + step].T.tobytes().translate(None, b"\0")
