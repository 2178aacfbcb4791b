"""Field arithmetic tests, including an independent re-verification of
every frozen polynomial's irreducibility (deg-N f over GF(2) is
irreducible iff x^{2^N} = x mod f and gcd(x^{2^{N/p}} + x, f) = 1 for
every prime p dividing N)."""

import random

import numpy as np
import pytest

from seqkey.errors import ParameterError
from seqkey.gf2n import POLY_TAPS, gf_mul, modulus


def _clmul(a, b):
    r = 0
    shift = 0
    while b:
        if b & 1:
            r ^= a << shift
        b >>= 1
        shift += 1
    return r


def _pmod(a, f):
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _serial_mul(a, b, n):
    """Bit-serial shift-and-reduce product of uint64 arrays in GF(2^n): the
    multiply gf_mul used before it took 4-bit windows. It reads the top bit
    before each shift, so every intermediate stays below 2^n."""
    one = np.uint64(1)
    top = np.uint64(n - 1)
    mask = np.uint64((1 << n) - 1)
    low = np.uint64(modulus(n) ^ (1 << n))
    r = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    for i in range(n):
        r ^= a * ((b >> np.uint64(i)) & one)
        a = ((a << one) & mask) ^ (a >> top) * low
    return r


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pow(a, e, n):
    """a^e in GF(2^n) by square-and-multiply over gf_mul."""
    r = 1
    while e:
        if e & 1:
            r = int(gf_mul(r, a, n))
        a = int(gf_mul(a, a, n))
        e >>= 1
    return r


def _primes(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class TestPolynomialTable:
    def test_covers_required_range(self):
        assert sorted(POLY_TAPS) == list(range(8, 65))

    def test_taps_well_formed(self):
        for n, taps in POLY_TAPS.items():
            assert len(taps) in (1, 3)
            assert all(0 < k < n for k in taps)
            assert list(taps) == sorted(taps, reverse=True)
            # gf_mul's one-step reduction of a 4-bit shift needs this
            assert taps[0] + 3 < n

    @pytest.mark.parametrize("n", sorted(POLY_TAPS))
    def test_irreducible(self, n):
        f = modulus(n)
        x = 2
        chain = [x]
        for _ in range(n):
            chain.append(_pmod(_clmul(chain[-1], chain[-1]), f))
        assert chain[n] == x  # x^{2^n} = x in the field
        for p in _primes(n):
            assert _pgcd(chain[n // p] ^ x, f) == 1

    def test_aes_field_sanity(self):
        # 0x53 and 0xCA are multiplicative inverses in the (4,3,1) field
        assert POLY_TAPS[8] == (4, 3, 1)
        assert gf_mul(0x53, 0xCA, 8) == 1


class TestScalarMul:
    def test_identity_and_zero(self):
        for n in (8, 12, 33, 64):
            v = (1 << n) - 3
            assert gf_mul(v, 1, n) == v
            assert gf_mul(1, v, n) == v
            assert gf_mul(v, 0, n) == 0

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for n in (8, 12, 16, 29, 47, 64):
            for _ in range(20):
                a, b, c = (rng.getrandbits(n) for _ in range(3))
                assert gf_mul(a, b, n) == gf_mul(b, a, n)
                assert gf_mul(gf_mul(a, b, n), c, n) == gf_mul(
                    a, gf_mul(b, c, n), n)
                assert gf_mul(a ^ b, c, n) == gf_mul(a, c, n) ^ gf_mul(
                    b, c, n)

    def test_no_zero_divisors(self):
        rng = random.Random(6)
        for n in (8, 12, 64):
            for _ in range(50):
                a = 1 + rng.getrandbits(n - 1)
                b = 1 + rng.getrandbits(n - 1)
                assert gf_mul(a, b, n) != 0

    def test_multiplicative_order_divides_group(self):
        # a^{2^n - 1} = 1 for every nonzero a; spot-check a few fields
        rng = np.random.default_rng(7)
        for n in (8, 12, 16, 24):
            for _ in range(5):
                a = int(rng.integers(1, 1 << n))
                assert _pow(a, (1 << n) - 1, n) == 1

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            gf_mul(1, 1, 7)
        with pytest.raises(ParameterError):
            gf_mul(1, 1, 65)
        with pytest.raises(ParameterError):
            gf_mul(1 << 8, 1, 8)
        with pytest.raises(ParameterError):
            gf_mul(-1, 1, 8)
        with pytest.raises(ParameterError):
            gf_mul(1, 1.0, 8)
        with pytest.raises(ParameterError):
            gf_mul(1 << 63, 1, 63)
        # 2^64 overflows uint64, so it must be refused before any cast
        with pytest.raises(ParameterError):
            gf_mul(1 << 64, 1, 64)
        with pytest.raises(ParameterError):
            gf_mul(1, [3, 1 << 64], 64)
        assert int(gf_mul((1 << 64) - 1, 1, 64)) == (1 << 64) - 1

    def test_pow_matches_repeated_multiplication(self):
        for n in (8, 40, 64):
            a = (1 << n) - 7
            want = 1
            for e in range(6):
                assert _pow(a, e, n) == want
                want = _pmod(_clmul(want, a), modulus(n))


class TestVectorMul:
    """gf_mul on arrays against the independent carry-less reference."""

    @pytest.mark.parametrize("n", sorted(POLY_TAPS))
    def test_matches_scalar(self, n):
        rng = random.Random(n)
        top = (1 << n) - 1
        a = [rng.getrandbits(n) for _ in range(60)] + [top, top, 0, 1, top]
        b = [rng.getrandbits(n) for _ in range(60)] + [top, 1, top, top, 0]
        a, b = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        out = gf_mul(a, b, n)
        assert out.dtype == np.uint64 and out.shape == (len(a),)
        f = modulus(n)
        assert [int(v) for v in out] == [
            _pmod(_clmul(int(x), int(y)), f) for x, y in zip(a, b)]
        assert np.array_equal(out, _serial_mul(a, b, n))
        # privacy_amplify's broadcast: (T, 3) inputs against (T, 1) seeds
        s, seeds = a[-39:].reshape(13, 3), b[-13:, None]
        out = gf_mul(s, seeds, n)
        assert out.shape == (13, 3)
        assert np.array_equal(out, _serial_mul(s, seeds, n))
        assert [int(v) for v in out.ravel()] == [
            _pmod(_clmul(int(x), int(y)), f)
            for x, y in zip(s.ravel(), np.repeat(seeds, 3))]

    @pytest.mark.parametrize("n", [8, 33, 64])
    def test_scalar_operands_give_0d_results(self, n):
        a, b = (1 << n) - 1, (1 << n) - 2
        want = _pmod(_clmul(a, b), modulus(n))
        for out in (gf_mul(a, b, n), gf_mul(np.uint64(a), np.uint64(b), n),
                    gf_mul(np.array(a, dtype=np.uint64), b, n)):
            assert np.ndim(out) == 0
            assert int(out) == want

    def test_broadcasting(self):
        n = 64
        rng = random.Random(3)
        a = np.array([[rng.getrandbits(n)] for _ in range(4)],
                     dtype=np.uint64)
        b = np.array([rng.getrandbits(n) for _ in range(5)], dtype=np.uint64)
        out = gf_mul(a, b, n)
        assert out.shape == (4, 5)
        f = modulus(n)
        for i in range(4):
            for j in range(5):
                assert int(out[i, j]) == _pmod(
                    _clmul(int(a[i, 0]), int(b[j])), f)
        assert np.array_equal(gf_mul(a[:, 0], 1, n), a[:, 0])

    def test_signed_operands_accepted(self):
        out = gf_mul(np.arange(256, dtype=np.int64), 0x53, 8)
        assert [int(v) for v in out] == [_pmod(_clmul(x, 0x53), modulus(8))
                                         for x in range(256)]

    def test_wide_fields_rejected(self):
        # only the table's fields exist: N = 7 and N = 65 have none
        for n in (7, 65):
            with pytest.raises(ParameterError):
                gf_mul(np.array([1, 2], dtype=np.uint64), 1, n)

    def test_out_of_range_rejected(self):
        one = np.ones(2, dtype=np.uint64)
        for bad in ([1, -1], [1, 1 << 12], [1.0, 2.0], np.float64(3.0)):
            with pytest.raises(ParameterError):
                gf_mul(np.asarray(bad), one, 12)
            with pytest.raises(ParameterError):
                gf_mul(one, np.asarray(bad), 12)
