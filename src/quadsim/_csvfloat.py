"""Float tables rendered as CSV bytes, exactly as format(x, ".15e") writes them.

`render_rows(table)` returns the bytes of

    "".join(",".join(format(x, ".15e") for x in row) + "\\n" for row in table)

computed in numpy.  Each value's 16 significant digits come from a fast path
that proves its own rounding, as in Grisu3 (Loitsch, "Printing floating-point
numbers quickly and accurately with integers", PLDI 2010), here with Dekker's
exact two-product (Numer. Math. 1971) in place of integer arithmetic:

* E = floor(log10|x|) is only an estimate;
* y = |x| * 10^(15 - E) is formed as a double-double from a (hi, lo) table of
  powers of ten, within about 1e-15 of its exact value;
* the digits are D = round(y), kept only when y is more than 1e-6 from a half
  (so no tie and no rounding error can change D), y >= 10^15 and D < 10^16
  (so E was right and no carry is due).

Every other value, and every value outside 1e-280 <= |x| <= 1e280 (zeros,
subnormals, inf, nan), is rendered on its own with format(x, ".15e").  A value
that carries, rounding to 1.000000000000000e(E+1), lies within 5e-17 below a
power of ten, where log10 rounds to the power itself: its E is one too high,
its y below 10^15, and it takes the fallback.
"""

from __future__ import annotations

import functools

import numpy as np

# one value's bytes, padded with 0, as six 4-byte words: [sign, d0, '.', d1],
# [d2..d5], [d6..d9], [d10..d13], [d14, d15, 'e', exponent sign],
# [2 or 3 exponent digits, separator]
_WORDS = 6
_LIMIT = 1e280
# exponent estimates of |x| in [1e-280, 1e280], with one to spare; 10^(15 - E)
# then stays below 1e297, so its Veltkamp split cannot overflow
_E_MIN, _E_MAX = -281, 281
_EXPONENTS = -_E_MIN + 1  # rows of the exponent table per separator
_SPLITTER = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 1e-6


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _words(texts) -> np.ndarray:
    """4-byte strings, padded with 0, as uint32 in memory order."""
    return np.frombuffer("".join(t.ljust(4, "\0") for t in texts).encode(), np.uint32)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """10^(15 - E) for E in [_E_MIN, _E_MAX] as hi (and its split) plus lo,
    and the word tables of the slot.  Built on first use, not at import."""
    from fractions import Fraction  # imports decimal: 2.4 ms kept off start-up

    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        exact = Fraction(10) ** (15 - e)
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    return (
        hi,
        *_split(hi),
        np.array(lo),
        _words(f"{s}{i // 10}.{i % 10}" for s in ("", "-") for i in range(100)),
        _words(f"{i:04d}" for i in range(10_000)),
        _words(f"{i:02d}e{s}" for s in "+-" for i in range(100)),
        _words(f"{e:02d}{s}" for s in ",\n" for e in range(_EXPONENTS)),
    )


def render_rows(table: np.ndarray) -> bytes:
    """CSV bytes of a 2-D float table: each value as format(x, ".15e"), values
    separated by ',' and each row ended by '\\n'."""
    rows, cols = table.shape
    x = np.ascontiguousarray(table, dtype=np.float64).ravel()
    ten_hi, ten_hi_hi, ten_hi_lo, ten_lo, head, quad, tail, expo = _tables()

    a = np.abs(x)
    fast = (a >= 1.0 / _LIMIT) & (a <= _LIMIT)  # false for 0, subnormals, inf, nan
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    j = e - _E_MIN
    # y = a * 10^(15 - e) = p + err + a*lo, with p + err = a*hi exactly
    hi_hi, hi_lo = ten_hi_hi[j], ten_hi_lo[j]
    p = a * ten_hi[j]
    a_hi, a_lo = _split(a)
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    err += a * ten_lo[j]
    # spent temporaries are freed at once, which keeps a block's working set
    # in cache: keeping them all alive doubled the time of a 1024-row block
    del hi_hi, hi_lo, a_hi, a_lo, j
    n = np.floor(p)
    f = (p - n) + err
    r = np.rint(f)
    # every test is false for a NaN, so it lands in the fallback
    fast &= np.abs(f - r) < 0.5 - _TIE_MARGIN
    # y >= 10^15, tested on n + f: the sum's rounding keeps its sign.  A y that
    # the 1e-15 error moves across 10^15 is written 1.000000000000000e(E)
    # with either exponent
    fast &= (n - 1e15) + f >= 0.0
    d = n.astype(np.int64) + r.astype(np.int64)
    del a, p, err, n, f, r
    fast &= d < 10**16
    d[~fast] = 10**15

    # two 8-digit halves d0..d7 and d8..d15, and their leading 6 and 2
    # digits; each digit group is a difference of these, as numpy's int64 %
    # is about 3.5 times slower than //
    top = d // 10**8
    bottom = d - top * 10**8
    top6, bottom6 = top // 100, bottom // 100
    top2, bottom2 = top6 // 10**4, bottom6 // 10**4
    expo_index = np.abs(e).reshape(rows, cols)
    expo_index[:, -1] += _EXPONENTS  # a row's last value ends with '\n'
    out = np.empty((x.size, _WORDS), dtype=np.uint32)
    out[:, 0] = head[np.signbit(x) * 100 + top2]
    out[:, 1] = quad[top6 - top2 * 10**4]
    out[:, 2] = quad[(top - top6 * 100) * 100 + bottom2]
    out[:, 3] = quad[bottom6 - bottom2 * 10**4]
    out[:, 4] = tail[(e < 0) * 100 + bottom - bottom6 * 100]
    out[:, 5] = expo[expo_index.ravel()]
    del d, top, bottom, top6, bottom6, top2, bottom2, e, expo_index
    text = out.view(np.uint8)
    for i in np.flatnonzero(~fast):
        value = format(float(x[i]), ".15e").encode()
        text[i, :-1] = 0
        text[i, : len(value)] = np.frombuffer(value, dtype=np.uint8)
        text[i, -1] = ord("\n" if i % cols == cols - 1 else ",")
    return text.tobytes().replace(b"\0", b"")
