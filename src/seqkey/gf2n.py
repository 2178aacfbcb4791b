"""GF(2^N) arithmetic for the multiplication hash, N in 8..64.

Elements are nonnegative ints below 2^N in the usual polynomial basis.
Each field is built on the lowest-weight irreducible polynomial: the
trinomial x^N + x^k + 1 with the smallest k when one exists, else the
lexicographically smallest pentanomial. The table was generated once by
exhaustive search (irreducibility via x^{2^N} = x mod f plus subfield gcd
checks) and is frozen here; the test suite re-verifies every entry with an
independent implementation.

One multiply serves every table N: ``gf_mul`` takes ints or integer arrays,
broadcasts them, and works on uint64 throughout.
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
    broadcast shape (a numpy scalar for two scalars). Shift-and-reduce
    reads the top bit before each shift, so every intermediate stays
    below 2^n and n = 64 fits in uint64.
    """
    n = check_int(n, "field size", 8, 64)
    f = modulus(n)
    a = _elements(a, n, "a")
    b = _elements(b, n, "b")
    one = np.uint64(1)
    top = np.uint64(n - 1)
    mask = np.uint64((1 << n) - 1)
    low = np.uint64(f ^ (1 << n))  # reduction mask once the top bit shifts out
    r = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    for i in range(n):
        r ^= a * ((b >> np.uint64(i)) & one)
        a = ((a << one) & mask) ^ (a >> top) * low
    return r[()]

