"""Python's ``repr`` of many doubles at once: the shortest round-trip text.

:func:`repr_lines` writes exactly the bytes of ``"\\n".join(map(repr,
values.tolist())) + "\\n"``.  CPython's ``repr`` is Gay's correctly rounded
shortest conversion (D. M. Gay, *Correctly rounded binary-decimal and
decimal-binary conversions*, 1990), run per value with big integers.  Here
the same digits are found for a whole array with a few dozen array
operations, for each finite double ``a`` in the positional range
[1e-4, 1e16):

1. **Scale.**  ``a * 10**s = p + err`` exactly, by Dekker's error-free
   product (T. J. Dekker, *A floating-point technique for extending the
   available precision*, 1971), where ``10**s`` is an exact double and the
   double ``p`` is an integer in [10**16, 10**17).  The exponent ``s`` is
   guessed from ``log10(a)`` and confirmed from ``p``.
2. **Bound.**  The decimals that read back as ``a`` fill the interval
   ``a +- ulp(a)/2``, scaled exactly to ``p + err +- (ulp(a)/2) * 10**s``.
   It is narrower than 23.
3. **Pick the digits.**  The shortest text is the multiple of ``10**j`` in
   that interval for the largest ``j`` that has one.  For ``j >= 2`` that
   multiple is unique; for ``j <= 1`` it is the one nearest ``p + err``.
4. **Lay out.**  Python's positional form (``0.00123``, ``12.5``,
   ``1000.0``) is assembled from the 17 digits with uint8 array slices.

A value it cannot certify is written by ``repr`` itself: one outside
[1e-4, 1e16), not finite or not positive; a power of two, whose interval is
not symmetric; one whose interval end, or whose tie between two nearest
candidates, lies within 1e-9 of an integer, where the array arithmetic
cannot settle which way the exact value falls; and one whose shortest
digits fall below 10**16 at its scale (the double just below 0.1 is one).
"""

from __future__ import annotations

import numpy as np

_WIDTH = 25  # bytes per line of the work buffer: the longest repr (24) and "\n"
_MARGIN = 1e-9  # an interval end or tie this close to an integer goes to repr

_POW10 = 10.0 ** np.arange(23)  # 10**0 .. 10**22, each an exact double
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_MANTISSA = np.uint64((1 << 52) - 1)
_SHIFT = {k: np.uint64(k) for k in (8, 10, 16, 20, 32, 52, 56)}
_COLUMNS = np.arange(_WIDTH, dtype=np.int8)


def _near_integer(v, margin=_MARGIN):
    return np.abs(v - np.rint(v)) < margin


def _ascii8(n):
    """The 8 decimal digits of each ``n < 10**8`` as ASCII bytes, packed in a uint64.

    SWAR division: two 4-digit lanes are split into four 2-digit lanes and
    then eight 1-digit lanes, the leading digit in the lowest byte, so the
    little-endian bytes read in order.
    """
    hi = n // 10000
    v = hi | ((n - hi * 10000) << _SHIFT[32])
    t = ((v * 10486) >> _SHIFT[20]) & 0x0000007F0000007F  # lane // 100 below 10**4
    v = t | ((v - t * 100) << _SHIFT[16])
    t = ((v * 103) >> _SHIFT[10]) & 0x000F000F000F000F  # lane // 10 below 100
    v = t | ((v - t * 10) << _SHIFT[8])
    return v + 0x3030303030303030


def _shortest(x):
    """Digits, exponent and certification of each value of ``x``.

    Returns ``(q, s, nd, ok)``: where ``ok``, ``repr(x)`` has the ``nd``
    significant digits of the 17-digit integer ``q`` and equals
    ``q * 10**-s``, with ``s`` in [1, 20]; elsewhere the rest is arbitrary.
    """
    bits = x.view(np.uint64)
    ok = (x >= 1e-4) & (x < 1e16) & ((bits & _MANTISSA) != 0)
    a = np.where(ok, x, 1.5)
    bits = a.view(np.uint64)

    # 1. scale: p = fl(a * 10**s) in [1e16, 1e17), err its exact rounding error
    s = (16 - np.floor(np.log10(a))).astype(np.intp)
    p = a * _POW10[s]
    s += (p < 1e16).astype(np.intp) - (p >= 1e17)
    scale = _POW10[s]
    p = a * scale
    ok &= (p >= 1e16) & (p < 1e17)
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo

    # 2. bound: the interval p + [lo, hi], from half an ulp of a, 2**(e - 53)
    half_ulp = (((bits >> _SHIFT[52]) - 53) << _SHIFT[52]).view(np.float64)
    lo, hi = err - half_ulp * scale, err + half_ulp * scale
    ok &= ~_near_integer(lo) & ~_near_integer(hi)

    # 3. pick: the integers in the interval run from below + 1 to top, so it
    # holds a multiple of 10**j while top // 10**j > below // 10**j
    whole = p.astype(np.int64)
    below = (whole + (np.ceil(lo).astype(np.int64) - 1)) // 10
    top = (whole + np.floor(hi).astype(np.int64)) // 10
    tens = top > below  # j >= 1
    # j <= 1: the multiple of unit = 10**j nearest p + err is whole - low +
    # unit * floor(half_up); at a tie between two, half_up is an integer
    unit = np.where(tens, 10, 1)
    low = np.where(tens, whole % 10, 0)
    scaled = np.where(tens, 0.1, 1.0)
    half_up = (low + err) * scaled + 0.5
    q = whole - low + unit * np.floor(half_up).astype(np.int64)
    ok &= ~_near_integer(half_up, _MARGIN * scaled)
    zeros = tens.astype(np.intp)
    # j >= 2: the one multiple of 10**j in the interval, top rounded down (certified rows only)
    rows = np.flatnonzero(tens & ok)
    below, top = below[rows], top[rows]
    for j in range(2, 18):
        below //= 10
        top //= 10
        keep = top > below
        rows, below, top = rows[keep], below[keep], top[keep]
        if not len(rows):
            break
        zeros[rows] = j
        q[rows] = top * 10**j

    # a shortest value of 16 digits (just below 0.1, 0.01, ...) goes to repr
    ok &= (q >= 10**16) & (q < 10**17) & (s >= 1) & (s <= 20)
    return q, s, 17 - zeros, ok


def repr_lines(values) -> str:
    """``"\\n".join(map(repr, values.tolist())) + "\\n"`` for a non-empty 1-d float64 array."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    m = len(x)
    q, s, nd, ok = _shortest(x)
    point = np.where(ok, 17 - s, 1)  # Python's decpt: value = 0.d1d2... * 10**point
    length = np.where(point <= 0, 2 - point + nd, np.maximum(nd, point + 1) + 1)

    # sorted by decpt, each group's lines are the same slices of its digits
    order = np.argsort(point.astype(np.int8), kind="stable")
    digits = q[order].astype(np.uint64)
    lead = digits // 10**16
    digits -= lead * 10**16
    upper = digits // 10**8
    # row bytes 0..6 are "0", byte 7 + k is digit k of q
    text = np.empty((m, 3), "<u8")
    text[:, 0] = 0x30303030303030 | ((lead + 0x30) << _SHIFT[56])
    text[:, 1] = _ascii8(upper)
    text[:, 2] = _ascii8(digits - upper * 10**8)
    text = text.view(np.uint8)
    lines = np.empty((m, _WIDTH), np.uint8)
    start = 0
    for decpt, count in enumerate(np.bincount(point + 3).tolist(), -3):
        rows = slice(start, start + count)
        start += count
        if decpt <= 0:  # "0." then -decpt zeros, then the digits
            lines[rows, :2] = (ord("0"), ord("."))
            lines[rows, 2 : 19 - decpt] = text[rows, 7 + decpt :]
        else:  # decpt digits, ".", the rest
            lines[rows, :decpt] = text[rows, 7 : 7 + decpt]
            lines[rows, decpt] = ord(".")
            lines[rows, decpt + 1 : 18] = text[rows, 7 + decpt :]
    unsorted = np.empty_like(lines)
    unsorted.view(f"V{_WIDTH}")[order] = lines.view(f"V{_WIDTH}")
    lines = unsorted

    fallback = np.flatnonzero(~ok)
    if len(fallback):
        reprs = np.array([repr(v) for v in x[fallback].tolist()], dtype=f"S{_WIDTH}")
        lines[fallback] = reprs.view(np.uint8).reshape(-1, _WIDTH)
        length[fallback] = np.char.str_len(reprs)
    lines[np.arange(m), length] = ord("\n")
    return lines[_COLUMNS <= length.astype(np.int8)[:, None]].tobytes().decode("ascii")
