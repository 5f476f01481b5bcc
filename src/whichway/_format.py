"""Bulk serialization of NumPy columns, byte for byte as ``"%.17g" % v``.

The CLI writes every float at 17 significant digits.  Through ``%`` each value
costs about 0.7 us, which made serialization the largest part of a cold job
that whichway itself owns; here a whole column is converted with NumPy,
``ROWS`` values at a time, so that the temporaries do not grow with the grid.

The digits.  With X0 = floor(log10 |v|) and k = 16 - X0, the product
|v|·10^k is formed as hi + lo: hi = fl(|v|·P), lo the exact error of that
product (Dekker's two-product on Veltkamp's split; NumPy contracts nothing
into a fused multiply-add) plus fl(|v|·p), where P and p are 10^k and
10^k - P, each correctly rounded and made from Python integers
(``_power``).  For k <= 22, 10^k is a float, p = 0 and hi + lo is the exact
product; otherwise it is within 4e-15 of it.  Its floor and fraction so give
the 17 digits D that ``%`` prints, rounded half to even, unless the sum lies
outside [10^16, 10^17) (X0 is then off by one) or, for p != 0, its fraction
lies within 2^-20 of one half.  Those values, and the subnormal, the
non-finite and those with |log10 |v|| >= 280, where the splits could leave
the floats, are formatted by ``%`` one at a time.

The layout.  Each value is one record of a NumPy structured array whose
fields sit at fixed offsets and hold NUL wherever ``%g`` writes nothing, so
that nothing is shifted by a per-value amount.  A value is written in fixed
notation: the sign, the integer part with its leading zeros NUL (but for the
units digit), the point, and the fraction's places -1 to -20 with their
trailing zeros NUL.  With X its decimal exponent, integer part and fraction
are D divided by 10^(16 - X); the point is written only before a nonzero
fraction.  Outside -4 <= X < 17, ``%g`` writes scientific notation, which
is fixed notation for X = 0 followed by ``e``, the exponent's sign and at
least two of its digits.  Digits go in four at a time, from a table of
every group of four digits: as they are, with their trailing zeros NUL,
and with their leading zeros NUL.  ``joined`` puts the records of several
columns and their separators side by side in one structured array, and
drops the NULs of its bytes with ``bytes.translate``.
"""
import numpy as np

# values formatted per pass
ROWS = 8192

_MINUS, _DOT, _ZERO = ord("-"), ord("."), ord("0")
# |log10 |v|| < _RANGE takes the fast path: there neither |v| nor 10^(16 - X0)
# overflows when split, and no part of either leaves the normal floats
_RANGE = 280
_X_MAX = _RANGE - 1  # the largest X0 of that range
_K_MIN = 16 - _X_MAX
_SPLIT = 134217729.0  # 2^27 + 1
_TIE = 2.0 ** -20
_E4, _E16, _E17 = 10 ** 4, 10 ** 16, 10 ** 17

# 10^k for k = 16 - X0 at index k - _K_MIN: the rows are P, P's Veltkamp
# halves and p, NaN until a column needs them
_POWERS = np.full((4, 2 * _RANGE), np.nan)

# by X + 4, for fixed notation: the power of ten that splits D into its
# integer part and fraction (10^(16 - X) for X >= 0; for X < 0, 10^-X splits
# off the fraction's first 16 places), and the power that moves the rest to
# the end of the fraction's first 16 places (X >= 0) or of its last 4
_X_FIXED = np.arange(-4, 17)
_SPLITTER = 10 ** np.where(_X_FIXED >= 0, 16 - _X_FIXED, -_X_FIXED).astype(np.int64)
_MOVER = 10 ** np.where(_X_FIXED >= 0, _X_FIXED, 4 + _X_FIXED).astype(np.int64)


def _group_table():
    """Every group of four digits as ASCII packed into a little-endian uint32:
    [0, 10^4) as they are, then with their trailing zeros NUL, then with
    their leading zeros NUL (0000 is all NUL in both)."""
    digit = np.arange(10, dtype=np.uint32)
    # digit i of a group runs along axis i of a 10 x 10 x 10 x 10 grid
    shapes = [[10 if axis == i else 1 for axis in range(4)] for i in range(4)]
    chars = [((digit + _ZERO) << 8 * i).reshape(s) for i, s in enumerate(shapes)]
    nonzero = [(digit != 0).reshape(s) for s in shapes]
    # a digit is kept when a digit at or after it (at or before it) is nonzero
    trailing, leading = nonzero[:], nonzero[:]
    for i in range(3):
        trailing[2 - i] = trailing[2 - i] | trailing[3 - i]
        leading[i + 1] = leading[i + 1] | leading[i]
    return np.concatenate([sum(chars).ravel(),
                           sum(c * k for c, k in zip(chars, trailing)).ravel(),
                           sum(c * k for c, k in zip(chars, leading)).ravel()]).astype(np.uint32)


_GROUPS = _group_table()
_TRAILING, _LEADING = _E4, 2 * _E4  # offsets of the stripped groups in _GROUPS
_BOOLS = np.array([b"false", b"true"], "S5")


def _power(k: int) -> tuple[float, float]:
    """10^k as P = fl(10^k) and p = fl(10^k - P), both correctly rounded
    (Python rounds the quotient of two integers correctly)."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    big = num / den
    n, d = big.as_integer_ratio()
    return big, (num * d - n * den) / (den * d)


def _split(x):
    """Veltkamp's split of x into two halves of at most 26 significant bits."""
    t = x * _SPLIT
    high = t - (t - x)
    return high, x - high


def _powers(index):
    """P, its halves and p at each index into _POWERS, filling in the
    powers this process has not used yet."""
    parts = [table[index] for table in _POWERS]
    missing = np.isnan(parts[0])
    if missing.any():
        new = np.zeros(len(_POWERS[0]), bool)
        new[index[missing]] = True
        for i in np.flatnonzero(new).tolist():
            big, rest = _power(i + _K_MIN)
            _POWERS[:, i] = (big, *_split(big), rest)
        parts = [table[index] for table in _POWERS]
    return parts


def _decimal(values):
    """D, X and whether the fast path holds, for each value: |v| rounds to
    D·10^(X - 16) with D in [10^16, 10^17).  Where it does not hold, D and X
    are 0, as they are for ±0."""
    with np.errstate(all="ignore"):  # the values off the fast path compute junk
        magnitude = np.abs(values)
        log = np.log10(magnitude)
        fast = np.abs(log) < _RANGE  # False for 0, NaN and inf
        x = np.floor(np.where(fast, log, 0.0)).astype(np.intp)
        big, big_high, big_low, rest = _powers(_X_MAX - x)
        hi = magnitude * big
        a_high, a_low = _split(magnitude)
        lo = ((a_high * big_high - hi) + a_high * big_low + a_low * big_high) + a_low * big_low
        lo += magnitude * rest
        floor = np.floor(lo)
        frac = lo - floor
        d = hi.astype(np.int64) + floor.astype(np.int64)
    # with 10^k a float (p = 0), hi + lo is the exact product and a tie is
    # exact; with p != 0 it is within 4e-15, too close to call near a half
    fast &= (d >= _E16) & (d < _E17) & ((rest == 0) | (np.abs(frac - 0.5) >= _TIE))
    d += (frac > 0.5) | ((frac == 0.5) & ((d & 1) == 1))  # half to even
    carry = d == _E17  # rounded up into the next decade
    d[carry] = _E16
    x += carry
    if not fast.all():
        d[~fast] = 0
        x[~fast] = 0
    return d, x, fast | (magnitude == 0)


def _groups(v, count: int) -> list:
    """The last ``count`` groups of four digits of v, most significant first."""
    groups = []
    for _ in range(count - 1):
        q = v // _E4
        groups.append(v - q * _E4)
        v = q
    return [v, *groups[::-1]]


def _stripped(groups, trailing: bool) -> list:
    """The table entries of groups read as one number, its trailing (or
    leading) zeros NUL."""
    offset, order = (_TRAILING, -1) if trailing else (_LEADING, 1)
    zero_beyond = np.ones(len(groups[0]), bool)
    entries = []
    for g in groups[::order]:
        entries.append(_GROUPS[g + offset * zero_beyond])
        zero_beyond = zero_beyond & (g == 0)
    return entries[::order]


def _float_cells(values):
    """Records of the cells of float64 values, their unused bytes NUL.

    Every value is laid out in fixed notation: with its own exponent X in
    [-4, 16], and otherwise with X = 0, followed by ``e``, the exponent's
    sign and digits.  The values off the fast path are laid out as 0, then
    overwritten with what ``%`` writes."""
    d, x, fast = _decimal(values)
    scientific = (x < -4) | (x > 16)
    point = np.where(scientific, 0, x)
    x_min, x_max = int(point.min()), int(point.max())
    n_int, n_frac = max(x_max, 0) // 4 + 1, (19 - x_min) // 4
    fields = [("sign", "u1"), ("int", "<u4", (n_int,)), ("dot", "u1"), ("frac", "<u4", (n_frac,))]
    if scientific.any():
        # e, the exponent's sign, hundreds (NUL below 100) and tens; units
        fields += [("exp", "<u4"), ("units", "u1")]
    size = np.dtype(fields).itemsize
    if not fast.all() and size < 24:
        fields += [("pad", f"V{24 - size}")]  # room for the longest text of %
    cells = np.zeros(len(d), fields)
    cells["sign"] = np.signbit(values) * _MINUS
    # D // 10^(16 - X) is the integer part; below 1, D // 10^-X is the
    # fraction's first 16 places, and the rest moves to its last 4
    splitter = _SPLITTER[point + 4]
    q = d // splitter
    moved = (d - q * splitter) * _MOVER[point + 4]
    whole = point >= 0
    head = np.where(whole, moved, q)  # places -1 to -16
    tail = moved - moved * whole  # places -17 to -20
    integer = _stripped(_groups(q * whole, n_int), trailing=False)
    integer[-1] |= (integer[-1] == 0) * np.uint32(_ZERO << 24)  # the 0 of 0.5
    for k, entry in enumerate(integer):
        cells["int"][:, k] = entry
    fraction = _stripped(_groups(head, 4) + [tail], trailing=True)
    for k, entry in enumerate(fraction[:n_frac]):  # the places past are 0 in every row
        cells["frac"][:, k] = entry
    cells["dot"] = ((head | tail) != 0) * _DOT
    if scientific.any():
        rows = np.flatnonzero(scientific)
        exponent = x[rows]
        magnitude = np.abs(exponent)
        cells["exp"][rows] = (ord("e") + (np.where(exponent < 0, _MINUS, ord("+")) << 8)
                              + ((magnitude >= 100) * (magnitude // 100 + _ZERO) << 16)
                              + ((magnitude // 10 % 10 + _ZERO) << 24))
        cells["units"][rows] = magnitude % 10 + _ZERO
    if not fast.all():
        slow = ~fast
        text = ["%.17g" % v for v in values[slow].tolist()]
        cells.view(f"S{cells.itemsize}")[slow] = np.array(text, "S24")
    return cells


def _cells(column):
    """Records of the cells of a float64 or bool column, unused bytes NUL."""
    if column.dtype == np.bool_:
        return _BOOLS[column.view(np.uint8)]
    return _float_cells(column.astype(np.float64, copy=False))


def joined(columns, sep: str = ",", end: str = "\n") -> bytes:
    """The ASCII text of equal-length NumPy columns (float64 or bool), row by
    row: each row's cells joined by sep and followed by end, both nonempty;
    floats as ``"%.17g" % v`` writes them, bools as ``true`` and ``false``."""
    seps = [s.encode() for s in [sep] * (len(columns) - 1) + [end]]
    text = []
    for start in range(0, len(columns[0]), ROWS):
        cells = [_cells(column[start:start + ROWS]) for column in columns]
        fields = []
        for k, (part, s) in enumerate(zip(cells, seps)):
            fields += [(f"c{k}", f"V{part.itemsize}"), (f"s{k}", f"S{len(s)}")]
        rows = np.empty(len(cells[0]), fields)
        for k, (part, s) in enumerate(zip(cells, seps)):
            rows[f"c{k}"] = part.view(f"V{part.itemsize}")
            rows[f"s{k}"] = s
        text.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(text)
