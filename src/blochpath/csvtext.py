"""CSV rows as text, formatted a chunk of cells at a time in numpy.

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
Trailing zeros, and a point with no digit after it, become NUL.  The
sign, prefix and exponent places are written only when some cell of the
chunk needs them, and every place no cell uses is dropped; the rest are
copied to cell-major order once, and one ``bytes.translate`` deletes the
NULs.  String cells are placed in the same byte matrix with their own NUL
bytes held as 0xFE, a byte UTF-8 never uses, which the same ``translate``
turns back into NUL.
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
_PLACE = np.arange(16, dtype=np.uint8)[:, None]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_PLACE = np.arange(5, dtype=np.int8)[:, None]
#: after the padding NULs are deleted, a string's own NULs are restored
_UNMARK = bytes.maketrans(b"\xfe", b"\0")


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


def _quad_table() -> np.ndarray:
    """The ASCII digits of 0000 ... 9999, four bytes to a uint32 entry."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                          np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    return quads.view(np.uint32).ravel()


_P_HI, _P_HI_HI, _P_HI_LO, _P_LO, _K0 = _pow10_table()
_QUADS = _quad_table()


def _scaled(a: np.ndarray, k: np.ndarray):
    """``floor(a 10^k)`` and the remainder in ``[0, 1)``, accurate to about
    1e-16 while ``a 10^k`` stays below 2^50."""
    i = k + _K0
    ph, phh, phl = _P_HI.take(i), _P_HI_HI.take(i), _P_HI_LO.take(i)
    p = a * ph
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    lo = (((ah * phh - p) + ah * phl + al * phh) + al * phl) + a * _P_LO.take(i)
    f = np.floor(p)
    r = (p - f) + lo
    whole = np.floor(r)
    return f + whole, r - whole


def _decimal(x: np.ndarray):
    """``|x|`` rounded to ``digits 10^(e - 14)``, with ``digits`` a 15-digit
    integer (as a float) and ``e`` an int8, where the fast path proves the
    rounding; and the mask of those cells.  Zeros give ``digits = e = 0``
    and count as proven; the other unproven cells get zeros too."""
    ax = np.abs(x)
    a = np.fmin(np.fmax(ax, _FAST_MIN), _FAST_MAX)
    e = np.floor(np.log10(a)).astype(np.intp)
    floor, rem = _scaled(a, 14 - e)
    # where log10 missed by one, next to a power of ten, floor has 14 or 16
    # digits and the cell is left to the scalar path
    proven = ((ax >= _FAST_MIN) & (ax < _FAST_MAX) & (floor >= 1e14)
              & (floor < 1e15) & (np.abs(rem - 0.5) >= _TIE))
    digits = (floor + (rem > 0.5)) * proven
    carry = digits == 1e15
    digits[carry] = 1e14
    return digits, ((e + carry) * proven).astype(np.int8), proven | (ax == 0.0)


def _digit_bytes(digits: np.ndarray) -> np.ndarray:
    """The 15 ASCII digits of each integer in ``digits``, then a ``0``, as a
    ``(16, n)`` uint8 array."""
    high = np.floor(digits / 1e7)
    low = (digits - high * 1e7) * 10.0
    g0, g2 = np.floor(high / 1e4), np.floor(low / 1e4)
    groups = np.stack([g0, high - g0 * 1e4, g2, low - g2 * 1e4], axis=1)
    return np.ascontiguousarray(
        _QUADS.take(groups.astype(np.intp)).view(np.uint8).T)


def _g15_slots(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.15g' % v`` for each float of ``x`` into the zeroed
    ``(_SLOT, n)`` uint8 array ``out``, as NUL-padded byte slots, one
    column per cell."""
    digits, e, done = _decimal(x)
    d = _digit_bytes(digits)
    fixed = (e >= -4) & (e < 15)
    whole = fixed & (e >= 0)
    small = fixed & (e < 0)
    # the point goes after digit p: the integer digits, one digit before an
    # exponent, or past the last digit when a small number's prefix holds it
    p = (whole * (e + 1) + small * 15 + ~fixed).astype(np.uint8)
    # the sign, prefix and exponent places stay zero unless a cell uses them
    neg = np.signbit(x)
    if neg.any():
        out[0] = neg * np.uint8(ord("-"))
    if small.any():
        out[1:6] = (_PREFIX_PLACE < small * (1 - e)) * _PREFIX
    body = out[6:22]
    body[0] = d[0]
    before = _PLACE < p
    np.multiply(before[1:], d[1:], out=body[1:])
    body[1:] += (_PLACE[1:] == p) * np.uint8(ord("."))
    body[1:] += (_PLACE[1:] > p) * d[:15]
    # keep what lies before the last nonzero digit, and the integer digits
    keep = body > ord("0")
    for j in range(14, -1, -1):
        keep[j] |= keep[j + 1]
    keep |= before & whole
    body *= keep
    expo = ~fixed
    if expo.any():
        mag = np.abs(e).astype(np.uint8)
        out[22] = expo * np.uint8(ord("e"))
        out[23] = expo * (ord("+") + 2 * (e < 0)).astype(np.uint8)
        out[24] = expo * (ord("0") + mag // 10)
        out[25] = expo * (ord("0") + mag % 10)
    for i in np.flatnonzero(~done):
        text = ("%.15g" % x[i]).encode()
        out[:, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)


def quote(texts: list, lone: bool) -> list:
    """``texts`` as ``csv.writer`` quotes them: a cell holding ``,``, ``"``,
    CR or LF is quoted with ``"`` doubled, as is an empty cell that is the
    row's only one (``lone``)."""
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n')
            or (lone and not t) else t for t in texts]


def csv_rows(columns: list) -> str:
    """The CRLF-terminated CSV rows of equal-length columns.

    A column of ``str`` (numpy kind ``U``) is quoted by :func:`quote`; any
    other column is read as float64 and written as ``'%.15g'``.
    """
    rows, width = len(columns[0]), len(columns)
    # a string's own NUL is held as 0xFE, a byte UTF-8 never uses, so that
    # every NUL in the byte matrix is padding
    texts = {j: [t.encode("utf-8", "surrogatepass").replace(b"\0", b"\xfe")
                 for t in quote(c.tolist(), width == 1)]
             for j, c in enumerate(columns) if c.dtype.kind == "U"}
    size = max([_SLOT] + [len(t) for cells in texts.values() for t in cells])
    # place-major: byte place, then row, then column, so that each numpy
    # operation runs along a whole chunk of cells
    cells = np.zeros((size + 2, rows, width), np.uint8)
    # a string cell is formatted as 0, then overwritten with its own bytes
    values = np.zeros((rows, width))
    for j, column in enumerate(columns):
        if j not in texts:
            values[:, j] = column
    _g15_slots(values.ravel(), cells[:_SLOT].reshape(_SLOT, -1))
    cells[size, :, :-1] = ord(",")
    cells[size:, :, -1] = np.array([[ord("\r")], [ord("\n")]])
    for j, encoded in texts.items():
        padded = b"".join(t.ljust(size, b"\0") for t in encoded)
        cells[:size, :, j] = np.frombuffer(padded, np.uint8).reshape(rows, size).T
    flat = cells.reshape(size + 2, -1)
    flat = flat[flat.any(axis=1)]
    return np.ascontiguousarray(flat.T).tobytes().translate(
        _UNMARK, b"\0").decode("utf-8", "surrogatepass")
