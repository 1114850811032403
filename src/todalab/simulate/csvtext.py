"""CSV text of float tables, each value byte for byte as ``'%.17g'`` writes it.

``csv_text`` formats a table with numpy, in blocks of about 2 048 values.
For each value x:

- X = floor(log10 |x|), from ``np.log10`` and corrected by one where the
  scaled value below leaves [10**16, 10**17).
- y = |x| 10**(16 - X) as a double-double ``hi + lo``: Dekker's exact
  product ("A floating-point technique for extending the available
  precision", 1971) of |x| and a table of 10**s as ``hi + lo``, built from
  exact integers for s in [-280, 300].  Its absolute error is below 2**-47.
- D = y rounded half to even, the 17 significant digits; a carry to 10**17
  is 10**16 with X + 1.  The digits are one leading digit and four groups
  of four, turned into ASCII by a table of the 10 000 groups.
- The ``%g`` layout: fixed notation for -4 <= X < 17, else ``d.ddde+XX``,
  with the trailing zeros of the fraction and a bare point dropped.  Each
  value fills a slot of four little-endian 64-bit words with its sign,
  ``0.``-prefix and leading digit, its other 16 digits with the point put
  in among them, its exponent and its separator; every byte it does not
  use is zero, and ``bytes.translate`` deletes the zero bytes.

A value the arithmetic cannot decide is formatted by ``'%.17g'`` itself,
into its slot: one whose y lies within 2**-40 of a half (an exact tie
among them), one outside [1e-280, 1e280) other than zero, and a NaN or an
infinity.

The tables are built on the first call, and ``experiment`` imports this
module where it writes a table, so importing the program allocates nothing
for it and leaves the heap the step plans' buffers are placed in as it was.
"""

from __future__ import annotations

import functools

import numpy as np

from .experiment import FLOAT_FMT

# values formatted at once, in whole rows: the temporaries stay in cache
_BLOCK = 2048

_S_MIN, _S_MAX = -280, 300  # the exponents s of the 10**s table
_X_MIN, _X_MAX = -300, 300  # the decimal exponents X of the layout tables
_TIE = 2.0**-40  # y this close to a half is left to '%.17g'

_WORD = np.dtype("<u8")
_HIGH_26 = np.uint64(~(2**27 - 1) & (2**64 - 1))
_COMMA, _NEWLINE = ord(","), ord("\n")


def _word(text: bytes, at: int) -> int:
    """The little-endian 64-bit word with ``text`` from byte ``at``."""
    return int.from_bytes(text, "little") << (8 * at)


def _low_bytes(n: int) -> int:
    """The word mask of its lowest ``n`` bytes, for n in [0, 8]."""
    return (1 << (8 * max(0, min(n, 8)))) - 1


class _Tables:
    """The tables of the kernel, built once from exact integers."""

    def __init__(self):
        # 10**s = hi + lo with hi the double nearest 10**s, and hi's Dekker
        # split hh + hl into two halves of 26 bits
        hi, lo = [], []
        for s in range(_S_MIN, _S_MAX + 1):
            if s >= 0:
                h = float(10**s)
                hi.append(h)
                lo.append(float(10**s - int(h)))
            else:
                h = 1 / 10**-s  # int / int rounds correctly
                num, den = h.as_integer_ratio()
                hi.append(h)
                lo.append((den - num * 10**-s) / (den * 10**-s))
        self.p_hi, self.p_lo = np.array(hi), np.array(lo)
        c = self.p_hi * 134217729.0  # 2**27 + 1
        self.p_hh = c - (c - self.p_hi)
        self.p_hl = self.p_hi - self.p_hh

        # the ASCII of the four-digit groups, in the low and the high half of
        # a word, and the digits of a 16-digit string kept up to and with the
        # last nonzero one, by the group's place in it (0 for a zero group)
        g = np.arange(10000, dtype=np.uint64)
        self.group = sum((48 + g // 10 ** (3 - i) % 10) << np.uint64(8 * i) for i in range(4))
        self.group_hi = self.group << np.uint64(32)
        trailing = sum((g % 10**i == 0).astype(np.intp) for i in range(1, 4))  # zeros of a nonzero group
        self.kept = [np.where(g > 0, 4 * i + 4 - trailing, 0).astype(np.uint8) for i in range(4)]

        # by m in [0, 16]: masks of the first m of the 16 digits after the
        # leading one, in the low and the high word; by the place q in
        # [0, 16] of the point among them (16: none): the masks of the
        # digits after it, moved up one byte, and the point itself
        self.first_a = np.array([_low_bytes(m) for m in range(17)], dtype=np.uint64)
        self.first_b = np.array([_low_bytes(m - 8) for m in range(17)], dtype=np.uint64)
        self.after_a = np.array([~_low_bytes(q + 1) & (2**64 - 1) for q in range(17)], dtype=np.uint64)
        self.point_a = np.array([_word(b".", q) if q < 8 else 0 for q in range(17)], dtype=np.uint64)
        self.after_b = np.array([~_low_bytes(q - 7) & (2**64 - 1) for q in range(17)], dtype=np.uint64)
        self.point_b = np.array([_word(b".", q - 8) if 8 <= q < 16 else 0 for q in range(17)], dtype=np.uint64)
        self.after_c = np.array([0xFF if q < 16 else 0 for q in range(17)], dtype=np.uint64)

        # by X: the sign-free head before the leading digit ("0." and the
        # zeros of -4 <= X < 0), the digits after the leading one that stand
        # before the point, the place of the point among them, and the tail
        # after them: the exponent and a comma
        head, whole, point, tail = [], [], [], []
        for x in range(_X_MIN, _X_MAX + 1):
            fixed = -4 <= x < 17
            head.append(_word(b"0." + b"0" * (-x - 1), 6 + x) if -4 <= x < 0 else 0)
            whole.append(x if 0 <= x < 17 else 0)
            point.append(x if 0 <= x < 17 else 16 if fixed else 0)
            tail.append((0 if fixed else _word(b"e%+03d" % x, 1)) | _word(b",", 7))
        self.head = np.array(head, dtype=np.uint64)
        self.whole = np.array(whole, dtype=np.intp)
        self.point = np.array(point, dtype=np.intp)
        self.tail = np.array(tail, dtype=np.uint64)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _scaled(tb: _Tables, a: np.ndarray, x10: np.ndarray):
    """``hi + lo`` = a 10**(16 - x10), hi the rounded product."""
    j = (16 - _S_MIN) - x10
    ph, phh, phl, pl = tb.p_hi[j], tb.p_hh[j], tb.p_hl[j], tb.p_lo[j]
    ah = (a.view(np.uint64) & _HIGH_26).view(np.float64)  # a's leading 26 bits
    al = a - ah
    hi = a * ph
    lo = ((ah * phh - hi) + ah * phl + al * phh) + al * phl
    lo += a * pl
    return hi, lo


def _decimal(values: np.ndarray):
    """The 17 significant digits D and the exponent X of each of the 1-D
    float64 ``values`` (0 and 0 for a zero), and the indices of the values
    they do not decide."""
    tb = _tables()
    a = np.abs(values)
    zero = a == 0
    decided = (a >= 1e-280) & (a < 1e280)
    a = np.fmin(np.fmax(a, 1e-280), 1e280)  # a NaN becomes 1e-280
    x10 = np.floor(np.log10(a)).astype(np.intp)  # off by one at most, near a power of ten
    hi, lo = _scaled(tb, a, x10)
    below = (hi - 1e16) + lo < 0
    above = (hi - 1e17) + lo >= 0
    fix = np.flatnonzero(below | above)
    if fix.size:
        x10[fix] += above[fix].astype(np.intp) - below[fix]
        hi[fix], lo[fix] = _scaled(tb, a[fix], x10[fix])
    up = np.rint(lo)
    undecided = np.flatnonzero((np.abs(lo - up) > 0.5 - _TIE) | ~(decided | zero))
    digits = hi.astype(np.int64) + up.astype(np.int64)
    carry = digits >= 10**17
    x10 += carry
    digits -= carry * (9 * 10**16)
    x10 *= ~zero
    digits *= ~zero
    return digits, x10, undecided


def _slots(values: np.ndarray) -> np.ndarray:
    """The (n, 4) little-endian words of the 1-D float64 ``values``: each
    value's 32 bytes hold its sign (byte 0), its ``0.``-prefix (1-6), its
    leading digit (7), its other digits with the point put in among them
    (8-24), its exponent (25-29) and a comma (31); the rest are zero."""
    tb = _tables()
    digits, x10, undecided = _decimal(values)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    top = rest // 10**8
    low = rest - top * 10**8
    g1 = top // 10**4
    g2 = top - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    wa = tb.group[g1] | tb.group_hi[g2]
    wb = tb.group[g3] | tb.group_hi[g4]
    kept = np.maximum(np.maximum(tb.kept[0][g1], tb.kept[1][g2]), np.maximum(tb.kept[2][g3], tb.kept[3][g4]))

    xi = x10 - _X_MIN
    whole = tb.whole[xi]
    keep = np.maximum(whole, kept)
    wa &= tb.first_a[keep]
    wb &= tb.first_b[keep]
    q = np.where(kept > whole, tb.point[xi], 16)

    out = np.empty((len(values), 4), dtype=_WORD)
    out[:, 0] = tb.head[xi] | (np.signbit(values) * np.uint64(ord("-"))) | ((lead.view(np.uint64) + 48) << 56)
    out[:, 1] = (wa & tb.first_a[q]) | ((wa << 8) & tb.after_a[q]) | tb.point_a[q]
    out[:, 2] = (wb & tb.first_b[q]) | (((wb << 8) | (wa >> 56)) & tb.after_b[q]) | tb.point_b[q]
    out[:, 3] = ((wb >> 56) & tb.after_c[q]) | tb.tail[xi]

    if undecided.size:
        raw = out.view(np.uint8)
        for i in undecided.tolist():
            text = (FLOAT_FMT % values[i]).encode("ascii")
            raw[i, :31] = 0
            raw[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def csv_text(header: str, *columns: np.ndarray) -> str:
    """``header``, then one line per row of the float ``columns`` side by
    side, each a 1-D column or a 2-D block of columns with as many rows,
    every value as ``'%.17g'`` writes it; every line ends in a newline."""
    blocks = [c[:, None] if c.ndim == 1 else c for c in columns]
    n_rows = len(blocks[0])
    n_cols = sum(b.shape[1] for b in blocks)
    step = max(1, _BLOCK // n_cols)
    # ``text +=`` on the one reference grows the string in place, so the
    # text is held once, not once in parts and once joined
    text = header + "\n"
    for r0 in range(0, n_rows, step):
        rows = np.concatenate([b[r0 : r0 + step] for b in blocks], axis=1, dtype=np.float64)
        words = _slots(rows.ravel()).reshape(len(rows), n_cols, 4)
        words[:, -1, 3] ^= np.uint64((_COMMA ^ _NEWLINE) << 56)
        text += words.tobytes().translate(None, b"\0").decode("ascii")
    return text
