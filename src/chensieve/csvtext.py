"""Exact `%.17g` and `%d` text of whole numpy columns, a block of rows at a time.

Each cell is CELL bytes, NUL-padded, so a caller can lay the cells of many
columns side by side and drop the padding in one pass.  An integer's cell is
its digits (`_digits`), leading zeros masked to NUL.  A float's cell is
gathered from a source row that holds the 20 ASCII digits of an integer, then
_LITERALS, then a NUL, by a layout that depends only on the sign, the decimal
exponent and the number of significant digits.

A float x != 0 with k = 16 - floor(log10|x|) and |k| <= 27 is scaled to y =
|x| 10^k (or |x| / 10^-k) in long double.  As 10^27 = 2^27 5^27 with 5^27 <
2^64, every 10^|k| is exact in a 64-bit or wider significand, so y is rounded
once and, below 2^57, lies within 2^-8 of |x| 10^k.  Where 10^16 <= y, rint(y)
< 10^17 and |y - rint(y)| < 1/2 - 2^-7, rint(y) is therefore the 17-digit
integer that `%.17g` rounds |x| 10^k to (an |x| 10^k just short of 10^16
rounds up to it at 17 digits, as rint(y) does), and the text is laid out from
its digits by `%g`'s rules for the point, the trailing zeros and the exponent.
Every other value, and every value where long double is not the x87 or quad
format, is formatted by `%.17g` itself.
"""

from __future__ import annotations

from functools import cache

import numpy as np

CELL = 24  # bytes of the longest `%.17g` text, "-2.2250738585072014e-308"
_LITERALS = "-.e+0123456789"
_SOURCE = 20 + len(_LITERALS) + 2  # bytes per source row: NUL, then a pad
_LITERAL_QUADS = np.frombuffer((_LITERALS + "\0\0").encode(), np.uint32)
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
_NEGATIVE = 55 * 17  # the first layout with a minus sign
_KEPT = np.where(np.arange(CELL) >= CELL - np.arange(21).clip(1)[:, None], 255, 0).astype(np.uint8)


@cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray] | None:
    """10^max(k, 0) and 10^max(-k, 0) at k + 27 for k in [-27, 27], as long
    doubles, or None unless long double is the x87 or quad format and every
    power is exact."""
    if np.finfo(np.longdouble).nmant not in (63, 112):
        return None
    powers = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
    hi = powers.astype(np.float64)
    lo = (powers - hi).astype(np.float64)
    if [int(h) + int(l) for h, l in zip(hi.tolist(), lo.tolist())] != [10**j for j in range(28)]:
        return None
    one = powers[:1]
    return np.concatenate([one.repeat(27), powers]), np.concatenate([powers[:0:-1], one.repeat(28)])


@cache
def _layouts() -> np.ndarray:
    """The source byte of each of the CELL bytes of a text, NUL past its
    end.  Row (X + 11) * 17 + sig - 1 lays out the `%.17g` text of
    D 10^(X - 16), D a 17-digit integer with `sig` significant digits
    (source digits 3-19); row _NEGATIVE + i the text of row i after a minus
    sign."""
    minus, point, e, plus, zero = (20 + _LITERALS.index(c) for c in "-.e+0")
    nul = 20 + len(_LITERALS)
    X, sig = np.divmod(np.arange(-11 * 17, _NEGATIVE - 11 * 17, dtype=np.int16), 17)
    sig += 1
    fixed = (0 <= X) & (X < 17)  # written with a point and no exponent
    small = (-4 <= X) & (X < 0)  # written as "0." and -X - 1 zeros, then the digits
    lead = np.where(small, 1 - X, 0)[:, None]  # the bytes before the first digit
    digits = np.where(fixed, np.maximum(sig, X + 1), sig)[:, None]
    whole = np.where(fixed, X + 1, np.where(small, CELL, 1))[:, None]  # digits before a point
    end = lead + digits + (digits > whole)  # where an exponent starts
    p = np.arange(CELL, dtype=np.int16)
    q = p - lead
    plain = 3 + q - (q > whole)  # source digit 3 + i for the digit after i others
    plain[q == whole] = point
    plain[p >= end] = nul
    plain[p < lead] = zero
    plain[small, 1] = point
    expo = np.flatnonzero(~(fixed | small))
    sign, x = np.where(X[expo] < 0, minus, plus), abs(X[expo])
    tail = [np.full_like(x, e), sign, zero + x // 10, zero + x % 10]
    plain[expo[:, None], end[expo] + np.arange(4)] = np.stack(tail, axis=1)  # "e%+03d" % X
    signed = np.concatenate([np.full((len(plain), 1), minus), plain[:, :-1]], axis=1)
    return np.concatenate([plain, signed]).astype(np.intp)


def _digits(m: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of each uint64 of `m` after four "0"s: CELL bytes
    a row, three words of 8 digits, the first in the low byte.  A word's v <
    10^8 splits into lanes of 4, 2, then 1 digit: q = v // d is (v f) >> s,
    exact for each lane, and q | (v - q d) << k is (v << k) - q ((d << k) - 1)."""
    x = np.empty((len(m), 3), np.uint64)
    x[:, 1] = m // 10**8
    x[:, 2] = m - x[:, 1] * 10**8
    x[:, 0] = x[:, 1] // 10**8
    x[:, 1] -= x[:, 0] * 10**8
    q, t = np.empty_like(x), np.empty_like(x)
    for f, s, lanes, d, k in ((3518437209, 45, 0x3FFF, 10**4, 32),
                              (5243, 19, 0x7F0000007F, 100, 16), (103, 10, 0xF000F000F000F, 10, 8)):
        np.multiply(x, f, out=q)
        q >>= s
        q &= lanes
        np.multiply(q, (d << k) - 1, out=t)
        x <<= k
        x -= t
    x |= 0x3030303030303030
    return x.astype("<u8", copy=False)


def printf_cells(values: list[float]) -> np.ndarray:
    """The `%.17g` text of each value, as rows of CELL NUL-padded bytes."""
    text = np.array(["%.17g" % v for v in values], dtype=f"S{CELL}")
    return text.view(np.uint8).reshape(len(values), CELL)


def float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the `%.17g` text of each float64 of `x` into the rows of `out`
    (len(x) x CELL bytes), NUL-padded."""
    slow = np.arange(len(x))
    if _powers_of_ten() is not None:
        a = np.abs(x)
        fast = np.isfinite(a) & (a != 0)
        a[~fast] = 1.0
        k = 16 - np.floor(np.log10(a)).astype(np.intp)
        fast &= np.abs(k) <= 27
        k[~fast] = 0
        up, down = _powers_of_ten()
        y = a.astype(np.longdouble)
        y *= up[k + 27]
        y /= down[k + 27]
        r = np.rint(y)
        # y - r as a double: exact for the x87 format (where y >= 2^53 it is a
        # multiple of 2^-10), and within 2^-54 of it for quad, far inside 2^-7
        off = (y - r).astype(np.float64)
        r[~fast] = 1e16
        m = r.astype(np.uint64)
        fast &= (m >= 10**16) & (m < 10**17) & (np.abs(off) < 0.5 - 2.0**-7)
        fast &= (m > 10**16) | (off >= 0)  # y >= 10^16
        digits = _digits(m)
        sig = 17 - np.argmax(digits.view(np.uint8)[:, :6:-1] != ord("0"), axis=1)
        source = np.empty((len(x), _SOURCE // 4), np.uint32)
        source[:, :5] = digits.view(np.uint32)[:, 1:]
        source[:, 5:] = _LITERAL_QUADS
        at = np.take(_layouts(), np.signbit(x) * _NEGATIVE + (27 - k) * 17 + sig - 1, axis=0)
        at += np.arange(0, len(x) * _SOURCE, _SOURCE)[:, None]
        np.take(source.view(np.uint8).ravel(), at, out=out)
        slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = printf_cells(x[slow].tolist())


def int_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Write the `%d` text of each integer or bool of `v` into the rows of
    `out` (len(v) x CELL bytes): `_digits` masked to the digits of |v| (_KEPT),
    and a minus sign in byte 0, which is a leading zero of any |v| <= 2^63."""
    neg = v < 0
    m = v.astype(np.uint64)
    np.negative(m, out=m, where=neg)  # |v| mod 2^64, which is |v| also at -2^63
    words = _digits(m)
    words &= np.take(_KEPT.view("<u8"), np.searchsorted(_POW10_U64, m, side="right"), axis=0)
    words[:, 0] |= neg * np.uint64(ord("-"))
    out[...] = words.view(np.uint8)
