"""GF(2^N) arithmetic for the multiplication hash, N in 8..64.

Elements are nonnegative ints below 2^N in the usual polynomial basis.
Each field is built on the lowest-weight irreducible polynomial: the
trinomial x^N + x^k + 1 with the smallest k when one exists, else the
lexicographically smallest pentanomial. The table was generated once by
exhaustive search (irreducibility via x^{2^N} = x mod f plus subfield gcd
checks) and is frozen here; the test suite re-verifies every entry with an
independent implementation.

One multiply serves every table N: ``gf_mul`` takes ints or integer arrays,
broadcasts them, and works on uint64 throughout, four bits of one operand
per step. Its one-step reduction needs every tap below N - 3, which the
table meets (its largest tap is N - 4, at N = 8).
"""

from __future__ import annotations

import numpy as np

from seqkey.errors import ParameterError
from seqkey.measures import check_int

# N -> exponents of the middle terms of f(x); x^N and 1 are implicit
POLY_TAPS = {
    8: (4, 3, 1), 9: (1,), 10: (3,), 11: (2,), 12: (3,), 13: (4, 3, 1),
    14: (5,), 15: (1,), 16: (5, 3, 1), 17: (3,), 18: (3,), 19: (5, 2, 1),
    20: (3,), 21: (2,), 22: (1,), 23: (5,), 24: (4, 3, 1), 25: (3,),
    26: (4, 3, 1), 27: (5, 2, 1), 28: (1,), 29: (2,), 30: (1,), 31: (3,),
    32: (7, 3, 2), 33: (10,), 34: (7,), 35: (2,), 36: (9,), 37: (6, 4, 1),
    38: (6, 5, 1), 39: (4,), 40: (5, 4, 3), 41: (3,), 42: (7,),
    43: (6, 4, 3), 44: (5,), 45: (4, 3, 1), 46: (1,), 47: (5,),
    48: (5, 3, 2), 49: (9,), 50: (4, 3, 2), 51: (6, 3, 1), 52: (3,),
    53: (6, 2, 1), 54: (9,), 55: (7,), 56: (7, 4, 2), 57: (4,),
    58: (19,), 59: (7, 4, 2), 60: (1,), 61: (5, 2, 1), 62: (29,),
    63: (1,), 64: (4, 3, 1),
}


def modulus(n):
    """Field polynomial of GF(2^n) as an int with bit i for x^i."""
    n = check_int(n, "field size", 8, 64)
    f = (1 << n) | 1
    for k in POLY_TAPS[n]:
        f |= 1 << k
    return f


def _elements(v, n, name):
    """v as uint64 after checking every entry lies in [0, 2^n).

    The check runs before the cast: numpy raises OverflowError when a
    Python int at or above 2^64 meets uint64.
    """
    if isinstance(v, (int, np.integer)):
        if not 0 <= int(v) < (1 << n):
            raise ParameterError(
                f"{name} must be an int in [0, 2^{n}), got {v!r}")
        return np.uint64(v)
    arr = np.asarray(v)
    if arr.dtype.kind not in "iu" or (arr.size and (
            int(arr.min()) < 0 or int(arr.max()) >> n)):
        raise ParameterError(
            f"{name} must hold ints in [0, 2^{n}), got {v!r}")
    return arr.astype(np.uint64)


def gf_mul(a, b, n):
    """Product of a and b in GF(2^n), elementwise over broadcast arrays.

    a and b are ints or integer arrays; the result is uint64 of their
    broadcast shape (a numpy scalar for two scalars).

    Horner's rule over b's 4-bit windows, top window first, in
    ceil(n/4) steps: each step multiplies the partial product by x^4 and
    adds a w for b's next window w, read from a 16-entry table of a w per
    element. The 4 bits that x^4 shifts out, t, come back as t x^n mod f =
    t (f - x^n), one entry of a 16-entry reduction table; every tap lies
    below n - 3, so that entry is below 2^n and one step reduces exactly.
    Values sit in the top n bits of a uint64 word, so the shift drops the
    4 bits with no mask, and n = 64 fits.
    """
    n = check_int(n, "field size", 8, 64)
    a = _elements(a, n, "a")
    b = _elements(b, n, "b")
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    up = np.uint64(64 - n)
    low = modulus(n) ^ (1 << n)
    red = [0]  # red[t] = t (f - x^n) for t = 0..15
    for i in range(4):
        red += [r ^ low << i for r in red]
    red = np.array(red, dtype=np.uint64) << up
    a = np.broadcast_to(a, shape).ravel() << up
    table = [np.zeros_like(a), a]  # table[w] = a w for w = 0..15
    for i in range(1, 4):
        a_i = (a << np.uint64(i)) ^ red[a >> np.uint64(64 - i)]  # a x^i
        table += [r ^ a_i for r in table]
    table = np.stack(table, axis=1).ravel()
    # row s: each element's index into the table for b's window s
    shifts = np.arange(4 * ((n - 1) // 4), -1, -4, dtype=np.uint64)
    windows = np.broadcast_to(b, shape).ravel() >> shifts[:, None]
    windows &= np.uint64(15)
    windows += np.arange(0, table.size, 16, dtype=np.uint64)
    r = table[windows[0]]
    four, top = np.uint64(4), np.uint64(60)
    for window in windows[1:]:
        r = (r << four) ^ red[r >> top] ^ table[window]
    return (r >> up).reshape(shape)[()]
