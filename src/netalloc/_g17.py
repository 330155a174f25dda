"""``b"%.17g" % v`` for a block of float64 values, computed in numpy.

``G17()(values)`` gives each value exactly the bytes of Python's ``%.17g``.
A value whose decimal exponent ``E`` (``10**E <= |v| < 10**(E + 1)``) lies
in fixed notation, ``-4 <= E <= 16``, is formatted in numpy:

1. ``E``: the binary exponent gives ``E`` or ``E - 1``, and one comparison
   with the smallest double ``>= 10**(E + 1)`` settles it.
2. The 17 digits ``N`` are ``|v| * 10**(16 - E)`` rounded half to even, as
   ``%.17g`` rounds. ``10**(16 - E) <= 10**20`` is an exact double, so
   Dekker's product (T. J. Dekker, Numer. Math. 18, 1971) gives the product
   exactly as ``p + err``; ``p >= 10**16 > 2**53`` is an even integer, so
   ``N = p + rint(err)``. No double rounds up to ``10**17``: the largest one
   below ``10**(E + 1)`` lies more than five units of the 17th digit below it.
3. A table of the 10**4 four-digit groups gives the digits' bytes, another
   their trailing zeros.
4. Three little-endian uint64 words hold the digits from byte 0; the bytes
   after the integer digits move up one byte for the point, or ``1 - E``
   bytes for ``0.000``; all move up one for a sign; what follows the last
   kept digit is cleared. ``.view("S24")`` reads them as NUL-padded cells.

Every other value, zeros, infinities, NaN and exponential notation, takes
Python's own ``b"%.17g" % v``, assigned to its cell, so its bytes are
Python's by construction; none is over 24 bytes (``-2.2250738585072014e-308``).
"""

import numpy as np

_LO, _HI = -4, 16  # the decimal exponents of %.17g's fixed notation
_U = np.uint64
_E = np.arange(_LO, _HI + 1)

# floor(u * log10(2)) is floor(log10(2**u)) for |u| < 2136, so the guess from
# the binary exponent u of a value is its decimal exponent or one less
_GUESS = np.floor((np.arange(2048) - 1023) * np.log10(2)).astype(np.int64).clip(_LO, _HI) - _LO
# the smallest double >= 10**e; a decimal literal rounds to nearest, and the
# doubles nearest 10**-4 .. 10**-1 lie above them (tests check all of these)
_MIN = float(f"1e{_LO}")
_NEXT = np.array([float(f"1e{e + 1}") for e in _E.tolist()])
_SCALE = np.array([float(f"1e{16 - e}") for e in _E.tolist()])
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI

# by four-digit group: its ASCII bytes, and its trailing zeros
_GROUPS = np.arange(10000, dtype=np.uint16)
_DIGITS = np.stack([_GROUPS // 10**k % 10 for k in (3, 2, 1, 0)], 1).astype(np.uint8) + ord("0")
_ASCII = _DIGITS.view("<u4").ravel().astype(_U)
_TRAILING_ZEROS = sum((_GROUPS % 10**k == 0).astype(np.int64) for k in (1, 2, 3, 4))


def _words(patterns):
    """Row ``j``: word ``j`` of each byte string, NUL-padded to 24 bytes."""
    return np.frombuffer(b"".join(p.ljust(24, b"\0") for p in patterns), "<u8").astype(_U).reshape(-1, 3).T.copy()


# by decimal exponent: the bytes from the first digit after the integer part
# on, how far they move (a byte for the point, 1 - E for "0.000"), and the
# point and zeros they make room for
_INTEGER_DIGITS = np.maximum(_E + 1, 0)
_AFTER = _words([b"\0" * q + b"\xff" * (24 - q) for q in _INTEGER_DIGITS.tolist()])
_EXTRA = np.where(_E >= 0, 1, 1 - _E)
_MOVE = (8 * _EXTRA).astype(_U)
_POINT = _words([b"\0" * (e + 1) + b"." if e >= 0 else b"0." + b"0" * (-e - 1) for e in _E.tolist()])
# by 18 * (E - _LO) + digits kept: the length without a sign, which is the
# integer digits, then the point, zeros and kept digits if a kept digit follows
_LENGTHS = np.array(
    [k + x if k > q else q for q, x in zip(_INTEGER_DIGITS.tolist(), _EXTRA.tolist()) for k in range(18)]
)
_LENGTH = _words([b"\xff" * i for i in range(25)])  # by the cell's length


def _shift_up(words, bits, back, carry):
    """Shift the 192-bit little-endian numbers in the three uint64 rows
    ``words`` up by ``bits`` (0 to 63), in place, dropping what passes the
    top; ``back`` and ``carry`` are scratch rows."""
    np.subtract(_U(63), bits, out=back)
    for j in (2, 1, 0):
        words[j] <<= bits
        if j:  # the top bits of the word below, by two shifts of at most 63
            np.right_shift(words[j - 1], _U(1), out=carry)
            carry >>= back
            words[j] |= carry


class G17:
    """``G17()(values)`` is an ``S24`` array of NUL-padded cells, overwritten by
    the next call: ``[b"%.17g" % v for v in values.tolist()]`` as ``.tolist()``.

    Its scratch, twelve words per value of the largest block so far and three
    for the cells' bytes, is kept for the next call: a block's temporaries are
    not allocated anew, so their cost does not depend on the allocator's state.
    """

    _slots, _cells = np.empty((12, 0), _U), np.empty((0, 3), "<u8")  # until the first call

    def __call__(self, values):
        n = len(values)
        if n > len(self._cells):
            self._slots = np.empty((12, n), _U)
            self._cells = np.empty((n, 3), "<u8")
        # one pool of rows, read as float64, int64 or uint64 as each step needs
        u = self._slots[:, :n]
        f, i = u.view(np.float64), u.view(np.int64)
        cells = self._cells[:n]

        a, t, e = f[0], i[1], i[2]
        np.abs(values, out=a)
        fast = (a >= _MIN) & (a < 1e17)  # False for NaN
        np.copyto(a, 1.0, where=~fast)  # the other cells' bytes come later
        # e = E - _LO
        np.right_shift(a.view(np.int64), 52, out=t)
        _GUESS.take(t, out=e, mode="clip")
        e += a >= _NEXT.take(e, out=f[3], mode="clip")

        # Dekker's product: p + err == a * 10**(16 - E) exactly
        p, ah, al, err = f[3], f[4], f[5], f[6]
        np.multiply(a, _SCALE.take(e, out=p, mode="clip"), out=p)
        np.multiply(a, _SPLIT, out=ah)
        np.subtract(ah, a, out=al)
        ah -= al
        np.subtract(a, ah, out=al)
        b = _SCALE_HI.take(e, out=a, mode="clip")  # a is split
        np.multiply(ah, b, out=err)
        np.subtract(p, err, out=err)
        b *= al
        err -= b
        _SCALE_LO.take(e, out=b, mode="clip")
        ah *= b
        err -= ah
        al *= b
        np.subtract(al, err, out=err)
        np.rint(err, out=err)
        N, t = i[1], i[0]
        N[...] = p
        t[...] = err
        N += t

        # the digits: d0, then four groups of four
        d0, h8, g1, g2, g3, g4 = i[3], i[4], i[5], i[6], i[7], i[8]
        np.floor_divide(N, 10**16, out=d0)
        N -= np.multiply(d0, 10**16, out=t)
        np.floor_divide(N, 10**8, out=h8)
        N -= np.multiply(h8, 10**8, out=t)
        np.floor_divide(h8, 10**4, out=g1)
        np.subtract(h8, np.multiply(g1, 10**4, out=t), out=g2)
        np.floor_divide(N, 10**4, out=g3)
        np.subtract(N, np.multiply(g3, 10**4, out=t), out=g4)
        # the digits up to the last nonzero one
        keep = i[1]
        _TRAILING_ZEROS.take(g1, out=keep, mode="clip")
        for g in (g2, g3, g4):
            keep *= g == 0
            keep += _TRAILING_ZEROS.take(g, out=t, mode="clip")
        np.subtract(17, keep, out=keep)

        # the 17 digits as bytes 0 .. 16 of three little-endian words
        words, t, back = u[9:12], u[0], u[4]
        for word, (high, low) in zip(words, ((g1, g2), (g3, g4))):
            _ASCII.take(high, out=word, mode="clip")
            word |= np.left_shift(_ASCII.take(low, out=t, mode="clip"), _U(32), out=t)
        words[2] = 0
        _shift_up(words, _U(8), back, t)
        words[0] |= d0.view(_U) + _U(ord("0"))
        # what follows the integer digits moves up for the point and zeros
        moved, bits = u[5:8], u[8]
        for j in range(3):
            np.bitwise_and(words[j], _AFTER[j].take(e, out=t, mode="clip"), out=moved[j])
            words[j] ^= moved[j]
        _shift_up(moved, _MOVE.take(e, out=bits, mode="clip"), back, t)
        for j in range(3):
            words[j] |= moved[j]
            words[j] |= _POINT[j].take(e, out=t, mode="clip")
        # and everything moves up a byte for a sign
        neg = np.signbit(values)
        _shift_up(words, np.multiply(neg, _U(8), out=bits), back, t)
        words[0] |= np.multiply(neg, _U(ord("-")), out=t)

        # the bytes past the cell's length cleared into the cells
        length, at = i[5], i[3]
        np.multiply(e, 18, out=at)
        at += keep
        _LENGTHS.take(at, out=length, mode="clip")
        length += neg
        for j in range(3):
            np.bitwise_and(words[j], _LENGTH[j].take(length, out=t, mode="clip"), out=cells[:, j])
        out = cells.view("S24").ravel()
        rest = (~fast).nonzero()[0]
        for j, x in zip(rest.tolist(), values[rest].tolist()):
            out[j] = b"%.17g" % x
        return out
