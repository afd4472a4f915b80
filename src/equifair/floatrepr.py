"""The text of float64 arrays, exactly as ``repr`` writes each float:
Schubfach (Giulietti 2020, "The Schubfach way to render doubles") on uint64
arrays, keeping the one-digit results that Java's version would lengthen,
then one gather through a table of repr's layouts."""

from functools import cache
from itertools import chain

import numpy as np

# values rendered at a time; their temporaries stay under about 1 MB
_CHUNK = 1 << 12
_M32, _TEN = np.uint64(0xFFFFFFFF), np.uint64(10)
_K_MIN, _K_MAX = -324, 292  # the powers 10**-k of the g table
# a value's 32 characters: its digits zero-padded to 20 (column 0 is always
# '0'), its |exponent| zero-padded to 4, then ".-e+" and NULs
_DOT, _MINUS, _E, _PLUS, _NUL = range(24, 29)
_WIDTH, _LENGTH = 32, 24  # the longest repr is "-2.2250738585072014e-308"
_POW10 = np.array([10**i for i in range(1, 17)], dtype=np.uint64)


@cache
def _tables():
    """For every k, g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1 as
    its high and low 63 bits g1, g0, each with its 32-bit halves; the four
    characters of each number below 10**4, then ".-e+" and NULs; and, for
    each (sign, digit count, form), the columns of a value's characters to
    print.  Forms 0-19 put the point after digit -3..16; 20-23 are e-XX,
    e-XXX, e+XX and e+XXX."""
    logs = [(k, (-k * 913_124_641_741) >> 38) for k in range(_K_MIN, _K_MAX + 1)]  # floor(log2(10**-k))
    g = [(10 ** max(-k, 0) << max(125 - r, 0)) // (10 ** max(k, 0) << max(r - 125, 0)) + 1 for k, r in logs]
    halves = [(x >> 63, x >> 95, x >> 63 & 0xFFFFFFFF, x & (1 << 63) - 1, x >> 32 & 0x7FFFFFFF, x & 0xFFFFFFFF) for x in g]
    quads = np.append(np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"), [*b".-e+", 0, 0, 0, 0]).astype(np.uint8)
    layouts = []
    for neg in (0, 1):
        for n in range(1, 18):
            d = list(range(20 - n, 20))
            for point in range(-3, 17):
                layouts.append([_MINUS] * neg + ([0, _DOT] + [0] * -point + d if point <= 0 else
                                                 d[:point] + [_DOT] + d[point:] if point < n else
                                                 d + [0] * (point - n) + [_DOT, 0]))
            for sign, wide in ((_MINUS, 0), (_MINUS, 1), (_PLUS, 0), (_PLUS, 1)):
                layouts.append([_MINUS] * neg + d[:1] + [_DOT] * (n > 1) + d[1:] + [_E, sign] + [21, 22, 23][1 - wide :])
    layouts = [row + [_NUL] * (_LENGTH - len(row)) for row in layouts]
    return np.array(halves, dtype=np.uint64).T.copy(), quads.view(np.uint32), np.array(layouts, dtype=np.intp)


def _product(g, gh, gl, cp, cl, ch):
    """The high and low 64 bits of g * cp, from their 32-bit halves."""
    ll, lh, hl = gl * cl, gl * ch, gh * cl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return gh * ch + (lh >> 32) + (hl >> 32) + (mid >> 32), g * cp


def _moved(hi, lo, g, sh, up):
    """The 128-bit hi * 2**64 + lo, plus (``up``) or minus g * 2**sh."""
    glo, ghi = g << sh, g >> (64 - sh)
    moved = lo + glo if up else lo - glo
    return hi + ghi + (moved < lo) if up else hi - ghi - (lo < glo), moved


def _rop(x1, y1, y0):
    """Java's ``rop``, g * cp / 2**127 rounded to odd, from x1 = g0 * cp >> 64 and y1, y0 = g1 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z << 1) != 0)


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest, closest decimal f * 10**k of each finite bit pattern,
    its sign aside, as Schubfach finds it; f = 0 for zeros."""
    bq = (bits >> 52 & 0x7FF).astype(np.int64)
    t = bits & ((1 << 52) - 1)
    c = np.where(bq != 0, t | (1 << 52), t)
    q = np.maximum(bq, 1) - 1075
    # at a power of two the interval below is half the one above; k is
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) there, and h in [1, 4]
    asym = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - 274_743_187_321 * asym) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g1h, g1l, g0, g0h, g0l = _tables()[0].take(k - _K_MIN, axis=1)
    # g times the interval's middle c << (h + 2), then times its ends,
    # 2**(h + 1) above and 2**h or 2**(h + 1) below, by moving those products
    cp = c << (h + 2)
    cl, ch = cp & _M32, cp >> 32
    x, y = _product(g0, g0h, g0l, cp, cl, ch), _product(g1, g1h, g1l, cp, cl, ch)
    above, below = h + 1, h + 1 - asym
    vb = _rop(x[0], *y)
    vbr = _rop(_moved(*x, g0, above, True)[0], *_moved(*y, g1, above, True))
    vbl = _rop(_moved(*x, g0, below, False)[0], *_moved(*y, g1, below, False))
    out = c & 1
    s = vb >> 2
    # a multiple of 10 in the interval is the shortest; there is at most one
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    # else s or s + 1, whichever lies in the interval, else the closer, else the even
    uin = vbl + out <= s << 2
    win = ((s + 1) << 2) + out <= vbr
    closer = (vb & 3) + (s & 1) > 2
    f = np.where(upin != wpin, sp10 + _TEN * wpin, s + np.where(uin != win, win, closer))
    f[c == 0] = 0
    return f, k


def _render(bits: np.ndarray) -> list[str]:
    """The repr of each finite bit pattern."""
    quads, layouts = _tables()[1:]
    f, e = _digits(bits)
    for p, d in ((10**16, 16), (10**8, 8), (10**4, 4), (100, 2), (10, 1)):  # strip f's trailing zeros
        shorter = f // p
        whole = shorter * p == f
        f = np.where(whole, shorter, f)
        e += d * whole
    n = np.searchsorted(_POW10, f, side="right") + 1
    point = np.where(f == 0, 1, n + e)  # the value is 0.<f's n digits> * 10**point
    exp = np.abs(point - 1)
    hi = (f // 10**8).astype(np.uint32)
    lo = (f - hi * np.uint64(10**8)).astype(np.uint32)
    groups = np.empty((len(f), 8), dtype=np.uint32)  # of 4 characters
    groups[:, 0] = top = hi // 10**8
    groups[:, 1], groups[:, 2] = np.divmod(hi - top * 10**8, 10**4)
    groups[:, 3], groups[:, 4] = np.divmod(lo, 10**4)
    groups[:, 5], groups[:, 6], groups[:, 7] = exp, 10**4, 10**4 + 1
    chars = quads.take(groups).view(np.uint8)
    form = np.where((point >= -3) & (point <= 16), point + 3, 20 + 2 * (point > 16) + (exp >= 100))
    at = layouts.take(((bits >> 63).astype(np.intp) * 17 + n - 1) * 24 + form, axis=0)
    at += np.arange(0, chars.size, _WIDTH)[:, None]
    return chars.reshape(-1).take(at).astype(np.uint32).view(f"U{_LENGTH}").reshape(-1).tolist()


def float_reprs(values: np.ndarray) -> list[str]:
    """``[repr(v) for v in values.tolist()]`` for an array of
    finite float64 values; a NaN or infinity raises ValueError."""
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(values).all():
        raise ValueError("cannot render a non-finite value")
    bits = values.view(np.uint64)
    return list(chain.from_iterable(_render(bits[lo : lo + _CHUNK]) for lo in range(0, len(bits), _CHUNK)))
