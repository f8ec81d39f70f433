"""Python's "%.17g" for float64 arrays, byte for byte, from numpy: the OFF
vertex block that mesh.save_off writes.

One numpy pass per chunk of values (_chunk) takes each value's decimal
exponent from log10, its 17 digits from a double-double product against a
table of powers of ten, lays them out in 32-byte fields with NUL holes from
a 4-digit ASCII lookup, and drops the holes with bytes.translate.  It
decides every finite value of magnitude in [_LO, _HI), zero included,
except a near-tie; the rest go through Python's % one at a time (_exact).
"""

from functools import cache

import numpy as np

_KMIN, _KMAX = -270, 270  # decimal exponents tabulated
_LO, _HI = 1e-268, 1e268  # log10's guess, moved and carried, stays in them
_CHUNK = 3 * 1024  # values per pass: 1024 vertex lines


def _split26(v):
    """v as head + rest, each with at most 26 significant bits (Dekker's
    split), so a product of two halves is exact; 1e-290 < |v| < 1e290."""
    c = v * 134217729.0  # 2**27 + 1
    head = c - (c - v)
    return head, v - head


def _as_words(b, dtype) -> np.ndarray:
    """Each row of a byte array as one word of `dtype`, in memory order."""
    return np.ascontiguousarray(b, dtype=np.uint8).view(dtype).ravel()


@cache
def _tables():
    """Tables of the numpy pass, built on its first use.

    Row _KMAX - k of hi + lo is 10**(16 - k), to about 1e-31 relative,
    with hi split for exact products.  lut holds the ASCII of every 4-digit
    group, tz its trailing zeros (4 for 0).  A value's 32-byte field is four
    8-byte words: word 0 the sign, the "0." prefix and zeros of a fixed
    k < 0, the leading digit and the dot after it (lead, sign_digit); words
    1 and 2 the 16 digits after it, cut by mask[digits kept]; word 3 the
    "e+XX" suffix (tail) and the separator in its last byte (sep).  keep is
    the count of digits a fixed k >= 0 shows whole.
    """
    # 10**j for j = 0..16 - _KMIN exactly as hi + lo, from Python ints
    hi, lo, p = [], [], 1
    for _ in range(17 - _KMIN):
        hi.append(float(p))
        lo.append(float(p - int(hi[-1])))
        p *= 10
    hi, lo = np.array(hi), np.array(lo)
    # 10**-j for j = 1..._KMAX - 16: 1 / (hi + lo), with the residual
    # 1 - h (hi + lo) taken exactly through Dekker's product
    ph, pl = hi[1 : _KMAX - 15], lo[1 : _KMAX - 15]
    h = 1 / ph
    prod = h * ph
    (hh, hl), (bh, bl) = _split26(h), _split26(ph)
    err = ((hh * bh - prod) + hh * bl + hl * bh) + hl * bl
    hi = np.concatenate([h[::-1], hi])
    lo = np.concatenate([((((1 - prod) - err) - h * pl) / ph)[::-1], lo])
    hi_head, hi_rest = _split26(hi)

    quad = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # the digits of 0..9999
    lut = _as_words(quad + 48, np.uint32)
    tz = np.logical_and.accumulate(quad[:, ::-1] == 0, axis=1).sum(axis=1)
    mask = _as_words(np.tri(9, 8, -1) * 255, np.uint64)

    ks = np.arange(_KMIN, _KMAX + 1)
    fixed = (ks >= -4) & (ks <= 16)
    below = fixed & (ks < 0)
    lead = np.zeros((len(ks), 2, 8), np.uint8)  # without, with the dot
    lead[below, :, 1], lead[below, :, 2] = ord("0"), ord(".")
    for z in range(3):
        lead[below & (ks < -1 - z), :, 3 + z] = ord("0")
    lead[~fixed | (ks == 0), 1, 7] = ord(".")
    sign_digit = np.zeros((2, 10, 8), np.uint8)
    sign_digit[1, :, 0] = ord("-")
    sign_digit[:, :, 6] = 48 + np.arange(10)
    tail = np.zeros((len(ks), 8), np.uint8)
    e, ak = ~fixed, np.abs(ks)
    tail[e, 0], tail[e, 1] = ord("e"), np.where(ks[e] < 0, ord("-"), ord("+"))
    three = 48 + np.stack([ak // 100, ak // 10 % 10, ak % 10], 1)
    tail[e & (ak >= 100), 2:5] = three[e & (ak >= 100)]
    tail[e & (ak < 100), 2:4] = three[e & (ak < 100), 1:]
    sep = np.zeros((3, 8), np.uint8)
    sep[:, 7] = [32, 32, 10]
    return dict(
        hi=hi, hi_head=hi_head, hi_rest=hi_rest, lo=lo, lut=lut, tz=tz.astype(np.int8),
        mask=mask, lead=_as_words(lead, np.uint64), sign_digit=_as_words(sign_digit, np.uint64),
        tail=_as_words(tail, np.uint64), sep=_as_words(sep, np.uint64),
        keep=np.where(fixed & (ks >= 0), ks + 1, 1),
    )


def _scaled(a, k, t):
    """For a > 0 and a guess k of its decimal exponent: floor(a * 10**(16 - k))
    and round-half-even(a * 10**(16 - k)) as int64, and whether the fraction
    lies within 1e-6 of .5, too near to decide.  The product is exact
    (Dekker's) against hi, plus a * lo: good to about 1e-13 absolute."""
    i = _KMAX - k
    p = a * t["hi"][i]
    (ah, al), bh, bl = _split26(a), t["hi_head"][i], t["hi_rest"][i]
    frac = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * t["lo"][i]
    whole = np.floor(p)
    frac += p - whole
    r = np.floor(frac)
    frac -= r
    n = whole.astype(np.int64)
    n += r.astype(np.int64)
    return n, n + (frac > 0.5), np.abs(frac - 0.5) < 1e-6


def _exact(value: float) -> bytes:
    """One value through Python's %: the path of the values the numpy pass
    leaves undecided."""
    return ("%.17g" % value).encode("ascii")


def _chunk(x: np.ndarray) -> bytes:
    """'%.17g' of each value of x, a space after each and a line break after
    every third (len(x) a multiple of 3), as ASCII bytes."""
    t = _tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    ok = (a >= _LO) & (a < _HI)
    a = np.where(ok, a, 1.0)
    # the decimal exponent: log10's guess, moved where the scaled value
    # falls outside [1e16, 1e17); a value that rounds up to 1e17 carries
    # into the next decade
    k = np.floor(np.log10(a)).astype(np.intp)
    lower, digits, tie = _scaled(a, k, t)
    move = (lower >= 10**17).astype(np.intp) - (lower < 10**16)
    moved = np.flatnonzero(move)
    if len(moved):
        k[moved] += move[moved]
        lower, digits[moved], tie[moved] = _scaled(a[moved], k[moved], t)
        tie[moved] |= (lower < 10**16) | (lower >= 10**17)
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    exact = ok & ~tie
    digits[~exact] = 0  # zero shows "0"; an undecided value is written over
    # the 17 digits: the leading one, then four groups of four
    first = digits // 10**16
    digits -= first * 10**16
    g = np.empty((4, n), np.uint32)
    g[1] = digits // 10**8
    g[3] = digits - g[1] * np.int64(10**8)
    g[0] = g[1] // 10000
    g[2] = g[3] // 10000
    g[1] -= g[0] * 10000
    g[3] -= g[2] * 10000
    g = g.astype(np.intp)
    # digits shown: 17 less the trailing zeros, at least the whole part
    z = t["tz"][g]
    shown = 17 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    ki = k - _KMIN
    keep = np.maximum(shown, t["keep"][ki])
    # one 32-byte field per value, NUL where it shows nothing
    w = np.empty((n, 4), np.uint64)
    w[:, 0] = t["lead"][2 * ki + (keep > 1)] | t["sign_digit"][10 * np.signbit(x) + first]
    w32 = w.view(np.uint32)
    for c in range(4):
        w32[:, 2 + c] = t["lut"][g[c]]
    w[:, 1] &= t["mask"][np.clip(keep - 1, 0, 8)]
    w[:, 2] &= t["mask"][np.clip(keep - 9, 0, 8)]
    w[:, 3] = t["tail"][ki] | np.tile(t["sep"], n // 3)
    b = w.view(np.uint8)
    # a fixed 1 <= k <= 15 with a fraction: the dot goes after digit k
    inner = np.flatnonzero((k >= 1) & (k <= 15) & (keep > k + 1))
    if len(inner):
        at = k[inner]
        row = b[inner, 6:24]  # d0, the empty dot slot, d1..d16
        row[:, 1:17] = np.where(np.arange(1, 17) <= at[:, None], row[:, 2:18], row[:, 1:17])
        row[np.arange(len(inner)), at + 1] = ord(".")
        b[inner, 6:24] = row
    undecided = np.flatnonzero(~(exact | zero))
    if len(undecided):
        text = b"".join(_exact(v).ljust(31, b"\0") for v in x[undecided].tolist())
        b[undecided, :31] = np.frombuffer(text, np.uint8).reshape(-1, 31)
    return b.tobytes().translate(None, b"\0")


def lines(vertices: np.ndarray):
    """The lines "%.17g %.17g %.17g\n" of an (n, 3) float64 array, as the
    ASCII text of one chunk of _CHUNK values at a time."""
    x = vertices.ravel()
    for i in range(0, len(x), _CHUNK):
        yield _chunk(x[i : i + _CHUNK]).decode("ascii")
