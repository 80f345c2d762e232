"""Exact ``%.17g`` text of float64 arrays, whole arrays at a time.

A finite double with ``1e-4 <= |x| < 1e17`` prints in fixed notation.
``np.frexp`` gives ``|x| = M * 2**(e - 63)`` exactly, with ``M`` an integer
in ``[2**62, 2**63)``, so with ``X = floor(log10|x|)`` and ``k = 16 - X``
the 17 significant digits are the integer

    D = round_half_even(M * 5**k * 2**(e - 63 + k)).

In that range ``0 <= k <= 20`` and the shift ``r = 63 - e - k`` lies in
[5, 57].  ``c``, the float product ``|x| * 10**k`` cut to an integer, is
within ``2**-52`` of ``D`` relative, so ``M * 5**k - c * 2**r`` is below
``2**59`` in size and exact in wrapping uint64 arithmetic; its top bits
correct ``c`` and its low ``r`` bits round it half to even.  Where
``log10`` misses the decade, or rounding carries ``D`` to ``10**17``, ``X``
moves by one and ``D`` is formed again, which is where ``printf`` puts the
exponent too.  Every other value (zeros, subnormals, ``|x| < 1e-4``,
``|x| >= 1e17``, nan and inf) goes through ``'%.17g' %`` one at a time.

The text is left-aligned in three little-endian uint64 words, whatever
the host's byte order.  The 17 digits start as their bytes, read from a
table of four-digit groups.  The digits in front of the inserted string (a
point after the integer digits, or ``0.`` and the zeros of a negative
decade) shift past the sign, the rest past the insert too, and the sign
and the insert are or-ed in, all from tables keyed by sign and decade.  A
mask table keyed by sign, decade and trailing zeros marks how many
characters count.

numpy 1.x promotes uint64 mixed with int64 to float64, so every operand
that meets a uint64 array is uint64 itself.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest '%.17g' of a double, "-1.2345678901234567e-308", in 3 words
FIELD = 24

_U64 = np.uint64
# byte i of a text is bits 8i..8i+7 of its word
_WORD = np.dtype("<u8")
_E4 = _U64(10 ** 4)
_E8 = _U64(10 ** 8)
_E16 = _U64(10 ** 16)
_9E16 = _U64(9 * 10 ** 16)
# 5**k and 10.0**k for k = 0..20, both exact
_POW5 = np.cumprod(np.r_[1, np.full(20, 5)].astype(np.uint64))
_POW10 = 10.0 ** np.arange(21)
# rows of the quarter-word table: 0..9999 are four digits, _DIGIT + d is
# the digit d alone and _EMPTY is no character
_DIGIT = 10000
_EMPTY = 10010


@functools.lru_cache(maxsize=None)
def _tables():
    """Lookup tables, built on first use so that importing costs nothing."""
    number = np.arange(10000, dtype=np.int32)
    quarters = np.zeros((10011, 4), dtype=np.uint8)
    zeros = np.zeros(10000, dtype=np.int64)
    for j in range(4):
        quarters[:10000, 3 - j] = number // 10 ** j % 10 + ord("0")
        zeros += number % 10 ** (j + 1) == 0
    quarters[_DIGIT:_EMPTY, 0] = np.arange(10) + ord("0")
    # per sign and decade, key negative * 21 + X + 4, over the bytes of the
    # text: the mask of the digits in front of the insert, the sign and the
    # insert at their places, and how far the digits move
    neg, X = (a.ravel()[:, None] for a in np.meshgrid(
        np.arange(2), np.arange(-4, 17), indexing="ij"))
    front = np.maximum(X + 1, 0)
    width = np.where(X < 0, 1 - X, 1)
    at = neg + front
    byte = np.arange(FIELD)
    fixed = np.select(
        [byte < neg, (byte == at + 1) & (X < 0),
         (byte >= at) & (byte < at + width)],
        [ord("-"), ord("."), np.where(X < 0, ord("0"), ord("."))])
    # key * 17 + trailing zeros of D
    tz = np.arange(17)
    fraction = np.maximum(16 - X - tz, 0)
    length = neg + np.where(
        X < 0, 18 - X - tz, X + 1 + np.where(fraction > 0, fraction + 1, 0))
    return (quarters.view("<u4").ravel(), zeros,
            np.where(byte < front, 0xFF, 0).astype(np.uint8).view(_WORD),
            fixed.astype(np.uint8).view(_WORD),
            np.repeat(8 * neg, 3, axis=1).astype(np.uint64),
            np.repeat(8 * (neg + width), 3, axis=1).astype(np.uint64),
            byte < length.reshape(-1, 1))


def _scaled_digits(a, M, e, X):
    """``round_half_even(M * 5**k * 2**(e - 63 + k))`` with ``k = 16 - X``."""
    k = 16 - X
    c = (a * np.take(_POW10, k)).astype(np.uint64)
    r = 63 - e - k
    diff = (M * np.take(_POW5, k)
            - (c << r.astype(np.uint64))).view(np.int64)
    unit = np.left_shift(1, r)
    rest = diff & (unit - 1)
    q = c + (diff >> r).view(np.uint64)
    # ties go to the even q: rest + (q & 1) passes half only when rounding up
    return q + (rest + (q & _U64(1)).view(np.int64) > (unit >> 1))


def _decimal(a):
    """Decade ``X`` and 17 significant digits ``D`` of each ``a`` > 0."""
    m, e = np.frexp(a)
    M = np.ldexp(m, 63).astype(np.uint64)
    e = e.astype(np.int64)
    X = np.floor(np.log10(a)).astype(np.int64)
    np.minimum(np.maximum(X, -4, out=X), 16, out=X)
    D = _scaled_digits(a, M, e, X)
    off = np.flatnonzero(D - _E16 >= _9E16)
    while off.size:
        X[off] += np.where(D[off] < _E16, -1, 1)
        D[off] = _scaled_digits(a[off], M[off], e[off], X[off])
        off = off[D[off] - _E16 >= _9E16]
    return X, D


def _digits(D, quarters, quad_zeros):
    """Three words of text holding the digits of each ``D``, and how many
    of them are trailing zeros."""
    # table rows of digits 0..3, 4..7, 8..11 and 12..15, of digit 16 alone
    # and of an empty quarter, one row of indices each
    rows = np.empty((6, D.size), dtype=np.uint64)
    rows[5] = _EMPTY
    tenth = D // _U64(10)
    last = np.subtract(D, tenth * _U64(10), out=rows[4])
    high = tenth // _E8
    low = tenth - high * _E8
    np.floor_divide(high, _E4, out=rows[0])
    np.subtract(high, rows[0] * _E4, out=rows[1])
    np.floor_divide(low, _E4, out=rows[2])
    np.subtract(low, rows[2] * _E4, out=rows[3])
    # trailing zeros: the last digit, then the groups from the right
    tz = np.zeros(D.size, dtype=np.int64)
    more = np.flatnonzero(last == 0)
    tz[more] = 1
    for j in (3, 2, 1, 0):
        if not more.size:
            break
        zeros = np.take(quad_zeros, rows[j, more].view(np.int64))
        tz[more] += zeros
        more = more[zeros == 4]
    last += _U64(_DIGIT)
    return np.take(quarters, rows.view(np.int64).T).view(_WORD), tz


def _shift(words, by):
    """Shift each row of three words left by ``by`` bits, in place.

    ``0 <= by < 64``.  Bits carried out of a row's last word would enter the
    next row's first word; every caller's last words have none to carry.
    """
    carry = (words >> (_U64(63) - by)) >> _U64(1)
    words <<= by
    words.reshape(-1)[1:] |= carry.reshape(-1)[:-1]
    return words


def fields(x):
    """``'%.17g' % v`` for every v of the 1-D float64 array ``x``.

    Returns ``(chars, valid)``, uint8 and bool arrays of shape
    ``(len(x), FIELD)``: the text of field i is ``chars[i][valid[i]]``, a
    prefix of the row.
    """
    (quarters, quad_zeros, front_mask, fixed, front_shift, rest_shift,
     masks) = _tables()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)
    # every value takes the fast path; the rest are overwritten below
    X, D = _decimal(np.where(fast, ax, 1.0))
    digits, tz = _digits(D, quarters, quad_zeros)
    key = np.where(x < 0.0, 21, 0) + (X + 4)
    front = digits & np.take(front_mask, key, axis=0)
    digits ^= front
    words = _shift(front, np.take(front_shift, key, axis=0))
    words |= _shift(digits, np.take(rest_shift, key, axis=0))
    words |= np.take(fixed, key, axis=0)
    chars = words.astype(_WORD, copy=False).view(np.uint8)
    valid = np.take(masks, 17 * key + tz, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [b"%.17g" % v for v in x[slow].tolist()]
        mask = np.arange(FIELD) < np.array([len(t) for t in texts])[:, None]
        block = chars[slow]
        block[mask] = np.frombuffer(b"".join(texts), dtype=np.uint8)
        chars[slow] = block
        valid[slow] = mask
    return chars, valid
