"""Protocol simulation tests.

Monte-Carlo expectations here were calibrated by pilot runs and frozen
with their seeds; the analytic anchors are stated next to each. The
recurring source is the BSC(0.1) pair, where the encoder's typicality
window at n in {8, 10, 12} admits only the exactly balanced type, so
P[encode] = C(n, n/2) / 2^n = 0.273, 0.246, 0.226 and the error rate of
the literal protocol is about half of that (the chosen codeword sits at
nu = 2 half the time while the decoder's fallback always points at 1).
"""

import hashlib
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import leakage_oracle
import reconcile_oracle as oracle
from seqkey import protocol
from seqkey.binary import BscCascadeSource
from seqkey.cli import demo_config_path, read_config
from seqkey.errors import InfeasibleError, ParameterError
from seqkey.measures import DiscreteJoint, joint_from_cascade
from seqkey.optimizer import TestChannel
from seqkey.protocol import (
    _COUNT_FUZZ,
    ProtocolParams,
    Rates,
    ReconCode,
    ReconcileResult,
    RunMetrics,
    _count_windows,
    _decode_bob,
    _decode_u,
    _distinct_rows,
    _draw_symbols,
    _encode_alice,
    _philox_keys,
    _stream,
    _trial_draws,
    design_rates,
    leakage_estimate,
    privacy_amplify,
    reconcile,
    run_experiment,
    sample_source,
)

J_BSC = BscCascadeSource(0.1, 0.3).joint()
TC_ID = TestChannel.identity(2)
TC_SKEW = TestChannel([[0.8, 0.2], [0.3, 0.7]])
CHUNK = protocol.CHUNK_ELEMENTS


def bsc_code(n, epsilon=0.15, seed=0, rates=None):
    return ReconCode.generate(J_BSC, TC_ID, n=n, epsilon=epsilon,
                              seed=seed, rates=rates)


def under_rate_code():
    """n = 10 with R_u below I(X;U|Y): 2 bins of w_nu = 11,586 words."""
    base = design_rates(J_BSC, TC_ID, epsilon=0.15)
    low = Rates(r_u=0.1, r_u_prime=base.r_u + base.r_u_prime - 0.1,
                r_v=0.0, r_v_prime=0.0)
    return bsc_code(10, seed=5, rates=low)


def _check_distinct_rows(codebook, base):
    """_distinct_rows gives np.unique's distinct rows and lowest rows,
    ordered by row."""
    words, first = _distinct_rows(codebook, base)
    ref_words, ref_first = np.unique(codebook, axis=0, return_index=True)
    order = np.argsort(ref_first)
    assert np.array_equal(first, ref_first[order])
    assert np.array_equal(words, ref_words[order])


def _drawn_v_codebook(code, omega, nu_idx):
    """Reference V codebook: uniforms through the cumulative p_{V|U},
    clamped to the alphabet."""
    u_row = code.u_codebook[omega * code.w_nu + nu_idx]
    r = _stream(code.seed, 2, omega, nu_idx).random(
        (code.w_k * code.w_l, code.n))
    out = np.empty(r.shape, dtype=np.uint8)
    for i in range(code.n):
        out[:, i] = np.searchsorted(code.p_v_cum_by_u[u_row[i]], r[:, i],
                                    side="right")
    return np.minimum(out, code.nv_size - 1)


class TestDesignRates:
    def test_bsc_identity_values(self):
        # I(X;U|Y) = H_b(0.1), H(U) = 1, I(Y;U) = 1 - H_b(0.1)
        r = design_rates(J_BSC, TC_ID, epsilon=0.15)
        hxy = 0.46899559358928117
        assert r.r_u == pytest.approx(hxy + 0.9, abs=1e-12)
        assert r.r_u_prime == pytest.approx(1.0 - hxy - 0.45, abs=1e-12)
        assert r.r_v == 0.0
        assert r.r_v_prime == 0.0
        # the slack is the code's, not a rate
        assert [f.name for f in fields(r)] == ["r_u", "r_u_prime", "r_v",
                                               "r_v_prime"]

    def test_v_layer_rates(self):
        # V = Y through an erasure-free copy: I(V;Y|XU) = H(Y|XU)
        v = np.zeros((2, 2, 2))
        v[0, :, 0] = 1.0
        v[1, :, 1] = 1.0
        r = design_rates(J_BSC, TC_ID, v, epsilon=0.1)
        hxy = 0.46899559358928117
        assert r.r_v == pytest.approx(hxy + 1.2 * hxy, abs=1e-12)
        # I(V;X|U) = 0 when U = X; the raw rate goes negative and the
        # codebook shape clamps it to a single index
        assert r.r_v_prime == pytest.approx(-0.6 * hxy, abs=1e-12)

    def test_epsilon_domain(self):
        with pytest.raises(ParameterError):
            design_rates(J_BSC, TC_ID, epsilon=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, bad):
        for name in ("r_u", "r_u_prime", "r_v", "r_v_prime"):
            rates = dict(r_u=1.0, r_u_prime=0.25, r_v=0.0, r_v_prime=0.0)
            rates[name] = bad
            with pytest.raises(ParameterError, match=name):
                Rates(**rates)


class TestReconCode:
    def test_sizes_follow_rates(self):
        code = bsc_code(8)
        r = code.rates
        assert code.w_u == math.ceil(2 ** (8 * r.r_u))
        assert code.w_nu == math.ceil(2 ** (8 * r.r_u_prime))
        assert code.w_k == 1 and code.w_l == 1
        assert code.u_codebook.shape == (code.w_u * code.w_nu, 8)

    def test_codebook_deterministic(self):
        a = bsc_code(8, seed=3).u_codebook
        b = bsc_code(8, seed=3).u_codebook
        assert np.array_equal(a, b)
        assert not np.array_equal(a, bsc_code(8, seed=4).u_codebook)

    @pytest.mark.parametrize("pmf", [
        [0.5, 0.5],                   # uniform
        [0.95, 0.05],                 # skewed
        [0.4, 0.0, 0.6],              # a symbol with zero mass
        [0.2, 0.3, 0.5],              # |U| = 3
        [0.1, 0.2, 0.3, 0.4],         # |U| = 4
        [0.0, 0.3, 0.7],              # zero mass on the first symbol
        [0.3, 0.7, 0.0],              # zero mass on the last symbol
    ])
    def test_symbol_draw_equals_generator_choice(self, pmf):
        p_u = np.array(pmf)
        for shape in ((3000, 12),
                      # rows x n just below, at and just above one chunk
                      (CHUNK // 8 - 1, 8), (CHUNK // 8, 8),
                      (CHUNK // 8 + 1, 8),
                      # 12 does not divide the chunk: 5,461 rows fill one
                      (CHUNK // 12, 12), (CHUNK // 12 + 1, 12),
                      (5 * CHUNK // 12, 12)):
            got = _draw_symbols(_stream(7, 0), p_u, shape)
            want = _stream(7, 0).choice(len(pmf), shape,
                                        p=p_u).astype(np.uint8)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), shape

    def test_u_codebook_is_the_choice_draw(self):
        # the n = 12 identity code is the demo's, 176,334 rows in 33 chunks
        for tc, n in ((TC_SKEW, 8), (TC_SKEW, 12), (TC_SKEW, 14),
                      (TC_ID, 12)):
            code = ReconCode.generate(J_BSC, tc, n=n, epsilon=0.15, seed=5)
            p_u = J_BSC.marginal((0,)) @ tc.rows
            want = _stream(5, 0).choice(2, code.u_codebook.shape,
                                        p=p_u).astype(np.uint8)
            assert np.array_equal(code.u_codebook, want), n

    def test_v_codebook_lazy_and_stable(self):
        v = np.zeros((2, 2, 2))
        v[0, :, 0] = 1.0
        v[1, :, 1] = 1.0
        code = ReconCode.generate(J_BSC, TC_ID, n=4, epsilon=0.15, seed=1,
                                  v_given_yu=v)
        first = code.v_codebook(2, 0)
        assert first.shape == (code.w_k * code.w_l, 4)
        assert np.array_equal(first, code.v_codebook(2, 0))
        frozen = {
            (2, 0): "8db2bb4d45cdeefc7b0a669379fc72aa"
                    "0e0c4a21c79b2f0654f276127d8eca94",
            (0, 1): "26907194a45389086f3086d8135b8376"
                    "6bbb4bbc2b1eb9ce211a52c2e05c8afd",
        }
        for (omega, nu_idx), digest in frozen.items():
            got = code.v_codebook(omega, nu_idx)
            assert np.array_equal(
                got, _drawn_v_codebook(code, omega, nu_idx))
            assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    def test_distinct_words_table(self):
        code = bsc_code(12, seed=20260816)
        words, first = np.unique(code.u_codebook, axis=0,
                                 return_index=True)
        order = np.argsort(first)
        assert np.array_equal(code.u_first_rows, first[order])
        assert np.array_equal(code.u_words, words[order])
        assert len(code.u_first_rows) == 1 << 12

    @pytest.mark.parametrize("make", [
        lambda: bsc_code(4), lambda: bsc_code(8), lambda: bsc_code(12),
        lambda: bsc_code(14),
        # bins of 11,586 rows straddle the 6,553-row chunks
        under_rate_code,
        # p_U = (0.7, 0.3): 50,486 rows miss some of the 4,096 words
        lambda: ReconCode.generate(BscCascadeSource(0.1, 0.5, prior=0.3)
                                   .joint(), TC_ID, n=12, epsilon=0.15,
                                   seed=1),
        # |U| = 3 with no mass on U = 2: 4,096 rows, 729 keys
        lambda: ReconCode.generate(
            TERNARY_J, TestChannel([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0],
                                    [0.6, 0.4, 0.0]]),
            n=6, epsilon=0.15, seed=2, rates=Rates(
                r_u=1.5, r_u_prime=0.5, r_v=0.0, r_v_prime=0.0)),
        # 512 rows, fewer than the 4,096 words
        lambda: bsc_code(12, seed=3, rates=Rates(r_u=0.5, r_u_prime=0.25,
                                                 r_v=0.0, r_v_prime=0.0)),
    ], ids=["n4", "n8", "n12", "n14", "under_rate", "skewed_p_u",
            "zero_mass_u", "rows_below_words"])
    def test_head_holds_every_first_row(self, make):
        code = make()
        rows = code.w_u * code.w_nu
        words, first = _distinct_rows(code.u_codebook, code.nu_size)
        assert np.array_equal(code.u_words, words)
        assert np.array_equal(code.u_first_rows, first)
        head = len(code.u_head)
        assert np.array_equal(code.u_head, code.u_codebook[:head])
        # whole bins up to the one holding the last first row, or every
        # row when some word never appears
        last_bin_end = (first[-1] // code.w_nu + 1) * code.w_nu
        if len(first) == code.nu_size ** code.n:
            assert head == last_bin_end
        else:
            assert head == rows
        # the bins the head holds are read from it
        assert code.u_rows(head // code.w_nu - 1) is code.u_head
        if head < rows:
            assert code.u_rows(head // code.w_nu) is code.u_codebook

    @pytest.mark.parametrize("decoder", ["typicality", "ml"])
    def test_bins_past_the_head_are_decoded(self, decoder):
        # Bob's procedure on bins no encoder output points at: the first
        # and the last bin of the sim_long_blocks code
        code = bsc_code(12, seed=20260816)
        assert len(code.u_head) < code.w_u * code.w_nu
        omega = np.array([0, code.w_u - 1])
        y = _blocks(12, 2, seed=1)[1]
        got = _decode_bob(y, omega, code, decoder)
        for b in range(2):
            want = oracle.decode_bob(y[b], omega[b], code, decoder)
            for g, w in zip(got, want):
                assert np.array_equal(g[b], w)

    @pytest.mark.parametrize("n", range(4, 15))
    def test_distinct_rows_table_over_keys(self, n):
        # 20,000 binary rows span at most 2^14 keys, no more than the rows:
        # the first-row table is indexed by the keys themselves
        codebook = _draw_symbols(_stream(n, 0), np.array([0.7, 0.3]),
                                 (20000, n))
        _check_distinct_rows(codebook, 2)

    def test_distinct_rows_ranks_a_wide_span(self):
        # ternary n = 11 spans 3^11 = 177,147 keys, more than the 300 rows:
        # the keys are ranked before the table is built
        rng = np.random.default_rng(11)
        pool = rng.integers(0, 3, size=(60, 11)).astype(np.uint8)
        _check_distinct_rows(pool[rng.integers(0, 60, size=300)], 3)

    def test_distinct_rows_reranks_before_int64_overflow(self):
        # 256^14 > 2^63: keys left to wrap mod 2^64 would keep only the
        # last 8 symbols, on which all these rows agree
        rng = np.random.default_rng(6)
        pool = rng.integers(0, 256, size=(40, 14)).astype(np.uint8)
        pool[:, 6:] = pool[0, 6:]
        codebook = pool[rng.integers(0, 40, size=300)]
        _check_distinct_rows(codebook, 256)

    def test_generate_peak_memory(self):
        # the sim_long_blocks code: 176,334 rows of n = 12. Drawn at once,
        # its 2.1M float64 uniforms made generate peak at 21.2 MB, and
        # drawn whole in chunks at 5.0 MB. It now draws only the head of
        # H rows (the bins up to the last distinct word's first row): it
        # holds the head's uint8 chunks (H n bytes) and, while it draws,
        # one chunk of CHUNK_ELEMENTS float64 uniforms and bool hits (9
        # bytes each), the chunk's keys and the 4,096-key table; the
        # chunks are joined into one array at the end (2 H n bytes).
        # Together within H (n + 16) + 9 CHUNK_ELEMENTS
        j = BscCascadeSource(0.1, 0.5).joint()
        ReconCode.generate(j, TC_ID, n=12, epsilon=0.15, seed=20260816)
        tracemalloc.start()
        try:
            code = ReconCode.generate(j, TC_ID, n=12, epsilon=0.15,
                                      seed=20260816)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, n = code.u_codebook.shape
        assert rows == 176334
        head = len(code.u_head)
        assert peak <= head * (n + 16) + 9 * CHUNK, (peak, head)

    def test_v_codebook_equals_search_draw(self):
        # three V symbols, so two cuts per column, each column's from its
        # own U symbol; 2^16 rows of 8 are 8 chunks of uniforms
        tall = ReconCode.generate(
            J_BSC, TC_ID, n=8, epsilon=0.3, seed=2, v_given_yu=_v_channel(3),
            rates=Rates(r_u=1.0, r_u_prime=0.25, r_v=1.5, r_v_prime=0.5))
        for code in (_batch_code("nv3"), tall):
            for omega, nu_idx in ((0, 0), (1, 0), (code.w_u - 1,
                                                   code.w_nu - 1)):
                got = code.v_codebook(omega, nu_idx)
                assert got.dtype == np.uint8
                assert np.array_equal(
                    got, _drawn_v_codebook(code, omega, nu_idx))
        assert code.w_k * code.w_l * code.n == 8 * CHUNK

    def test_v_codebook_without_v_layer_matches_draw(self):
        # nv = 1: the draw-then-clamp construction always gave zeros,
        # also when explicit rates ask for several V codewords per bin
        wide = Rates(r_u=1.0, r_u_prime=0.25, r_v=0.5, r_v_prime=0.25)
        codes = (bsc_code(8), bsc_code(8, rates=wide))
        assert codes[1].w_k * codes[1].w_l == 16 * 4
        for code in codes:
            for omega, nu_idx in ((0, 0), (1, 0), (code.w_u - 1,
                                                   code.w_nu - 1)):
                got = code.v_codebook(omega, nu_idx)
                assert got.dtype == np.uint8
                assert np.array_equal(
                    got, _drawn_v_codebook(code, omega, nu_idx))

    def test_budget_guard(self):
        big = Rates(r_u=2.0, r_u_prime=1.0, r_v=0.0, r_v_prime=0.0)
        with pytest.raises(InfeasibleError):
            bsc_code(12, rates=big)

    @pytest.mark.parametrize("field", ["r_u", "r_u_prime", "r_v",
                                       "r_v_prime"])
    @pytest.mark.parametrize("rate", [100.0, 200.0, 1e300])
    def test_oversized_rate_is_infeasible(self, field, rate):
        # 2^(n rate) overflowed a float at rate 200 and raised
        # OverflowError before the budget guard could answer
        rates = dict(r_u=1.0, r_u_prime=0.25, r_v=0.0, r_v_prime=0.0)
        rates[field] = rate
        with pytest.raises(InfeasibleError, match="codebook budget"):
            ReconCode.generate(J_BSC, TC_ID, n=8, epsilon=0.15, seed=0,
                               v_given_yu=_v_channel(2),
                               rates=Rates(**rates))

    def test_windows_use_epsilon_with_explicit_rates(self):
        # explicit rates used to bring a slack of their own, which
        # overrode epsilon without a word. At eps = 0.15 the BSC(0.2)
        # channel's windows hold no count at n = 8; at 0.5 they do.
        narrow, wide = (ReconCode.generate(
            J_BSC, TestChannel.bsc(0.2), n=8, epsilon=eps, seed=8,
            rates=WIDE_RATES) for eps in (0.15, WIDE_EPS))
        assert (narrow.eps, wide.eps) == (0.15, WIDE_EPS)
        assert (narrow.eps2, wide.eps2) == (0.3, 2 * WIDE_EPS)
        x, y, _ = _blocks(8, 60, seed=8)
        assert not reconcile(x, y, narrow).alice_found.any()
        res = reconcile(x, y, wide)
        assert res.alice_found.any() and res.bob_found.any()
        for b in range(60):
            assert _encode_alice(x[b], wide) == _scan_encode(x[b], wide)

    def test_epsilon_domain_with_explicit_rates(self):
        for bad in (0.0, 1.0, math.nan):
            with pytest.raises(ParameterError, match="epsilon"):
                bsc_code(8, epsilon=bad, rates=WIDE_RATES)

    def test_block_length_domain(self):
        with pytest.raises(ParameterError):
            bsc_code(1)
        with pytest.raises(ParameterError):
            bsc_code(15)

    def test_alphabet_over_uint8_rejected(self):
        # symbols are stored as uint8: these codes used to be built, their
        # U or V symbols wrapped modulo 256
        v = np.zeros((2, 2, 300))
        v[..., 299] = 1.0
        with pytest.raises(ParameterError, match=r"\|V\| = 300"):
            ReconCode.generate(J_BSC, TC_ID, n=8, epsilon=0.15, seed=0,
                               v_given_yu=v, rates=WIDE_RATES)
        masses = np.zeros((300, 2, 2))
        masses[:, 0, 0] = 1.0 / 300
        with pytest.raises(ParameterError, match=r"\|X\| = 300"):
            ReconCode.generate(DiscreteJoint(masses),
                               TestChannel.identity(300), n=8, epsilon=0.15,
                               seed=0, rates=WIDE_RATES)


class TestSampleSource:
    def test_equals_search_of_cumulative_masses(self):
        # 23 cuts, zero-mass cells among them, over several chunks
        masses = np.random.default_rng(3).random((3, 4, 2))
        masses[0, 1] = masses[2, 3] = 0.0
        j = DiscreteJoint(masses / masses.sum())
        count = 3 * CHUNK + 5
        cum = np.cumsum(j.masses.ravel())
        cum[-1] = 1.0
        flat = np.searchsorted(cum, _stream(9).random(count), side="right")
        for got, want in zip(sample_source(j, count, seed=9),
                             np.unravel_index(flat, j.dims)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)

    def test_deterministic(self):
        a = sample_source(J_BSC, 64, seed=7)
        b = sample_source(J_BSC, 64, seed=7)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_point_mass(self):
        j = DiscreteJoint(np.array([[[0.0], [0.0]], [[0.0], [1.0]]]))
        x, y, z = sample_source(j, 32, seed=0)
        assert np.all(x == 1) and np.all(y == 1) and np.all(z == 0)

    def test_empirical_type_within_bands(self):
        n = 1_000_000
        x, y, z = sample_source(J_BSC, n, seed=11)
        counts = np.zeros((2, 2, 2))
        np.add.at(counts, (x, y, z), 1)
        p = J_BSC.masses
        sd = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3.0 * sd)

    def test_domain(self):
        with pytest.raises(ParameterError):
            sample_source(J_BSC, 0, seed=1)

    def test_alphabet_over_uint8_rejected(self):
        # x = 299 used to come back as the uint8 symbol 43; 256 symbols fit
        for size, want in ((256, 255), (300, None)):
            masses = np.zeros((size, 2, 2))
            masses[size - 1, 0, 0] = 1.0
            if want is None:
                with pytest.raises(ParameterError, match=r"\|X\| = 300"):
                    sample_source(DiscreteJoint(masses), 4, seed=1)
            else:
                x, _, _ = sample_source(DiscreteJoint(masses), 4, seed=1)
                assert np.all(x == want)


def _looped_draws(j, params, n_bits):
    """Reference trial draws: a fresh _stream per trial and stream id, as
    run_experiment drew them before its streams were batched."""
    trials, m, n = params.trials, params.m, params.n
    xyz = np.empty((3, trials, m, n), dtype=np.uint8)
    hash_seeds = np.empty((trials, n_bits), dtype=np.uint8)
    for t in range(trials):
        xyz[:, t] = np.reshape(sample_source(
            j, n * m, _stream(params.seed, 1, t)), (3, m, n))
        hash_seeds[t] = _stream(params.seed, 3, t).integers(0, 2, n_bits)
    x, y, z = xyz
    return x, y, z, hash_seeds


# (q, n, m, k, decoder, seed, trials, V layer), run against the loop
LOOP_CONFIGS = {
    "short_ml": (0.5, 8, 8, 4, "ml", 20260816, 150, False),
    "short_typicality": (0.5, 8, 8, 4, "typicality", 7, 150, False),
    "short_ml_big_seed": (0.5, 8, 8, 4, "ml", 2 ** 64 + 3, 150, False),
    "long_typicality": (0.5, 12, 4, 2, "typicality", 20260816, 10, False),
    "long_ml_q03": (0.3, 12, 4, 2, "ml", 7, 10, False),
    "q03_ml": (0.3, 8, 1, 4, "ml", 7, 500, False),
    "q03_typicality_n12": (0.3, 12, 1, 8, "typicality", 2 ** 32 + 5, 200,
                           False),
    "v_layer_ml": (0.3, 8, 4, 8, "ml", 20260816, 60, True),
    "v_layer_typicality_big_seed": (0.3, 8, 4, 8, "typicality", 2 ** 40,
                                    60, True),
    # N = 9: the last raw word's high half is dropped
    "odd_bits_ml": (0.3, 9, 1, 4, "ml", 7, 200, False),
    "one_trial": (0.5, 8, 8, 4, "ml", 20260816, 1, False),
}


class TestTrialStreams:
    """Every trial's Philox key from one array pass, and the batched trial
    draws, against numpy's SeedSequence and a fresh _stream per trial."""

    # 2^130 has five 32-bit words, one more than the pool, so its last
    # word goes through SeedSequence's extra-entropy mixing
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64 + 3, 2 ** 130])
    @pytest.mark.parametrize("stream", [1, 3])
    def test_keys_match_seed_sequence(self, seed, stream):
        want = [np.random.SeedSequence(seed, spawn_key=(stream, t))
                .generate_state(2, np.uint64) for t in range(5001)]
        # alone, and as one row of the two-stream call _trial_draws makes
        for streams in ((stream,), (1, 3)):
            got = _philox_keys(seed, streams, 5001)
            assert got.dtype == np.uint64
            assert got.shape == (len(streams), 5001, 2)
            assert np.array_equal(got[streams.index(stream)], want)

    @pytest.mark.parametrize("name", sorted(LOOP_CONFIGS))
    def test_draws_and_metrics_equal_per_trial_loop(self, name,
                                                    monkeypatch):
        q, n, m, k, decoder, seed, trials, v_layer = LOOP_CONFIGS[name]
        j = BscCascadeSource(0.1, q).joint()
        v = _v_channel(2) if v_layer else None
        params = ProtocolParams(n=n, m=m, k=k, epsilon=0.15, trials=trials,
                                seed=seed, decoder=decoder)
        n_bits = n * m * (2 if v_layer else 1)
        for got, want in zip(_trial_draws(j, params, n_bits),
                             _looped_draws(j, params, n_bits)):
            assert got.dtype == want.dtype == np.uint8
            assert np.array_equal(got, want)
        mets = run_experiment(j, TC_ID, params, v_given_yu=v)
        monkeypatch.setattr(protocol, "_trial_draws", _looped_draws)
        monkeypatch.setattr(protocol, "leakage_estimate",
                            leakage_oracle.leakage_estimate)
        assert mets == run_experiment(j, TC_ID, params, v_given_yu=v)


def _scan_encode(x, code):
    """Reference encoder: test every codebook row's joint type with x and
    take the lowest typical row."""
    cells = code.pmf_xu.size
    rows = code.u_codebook.shape[0]
    codes = x.astype(np.int64)[None, :] * code.nu_size + code.u_codebook
    counts = np.bincount(
        (np.arange(rows)[:, None] * cells + codes).ravel(),
        minlength=rows * cells).reshape(rows, cells)
    lo = code.n * code.pmf_xu * (1.0 - code.eps) - 1e-9
    hi = code.n * code.pmf_xu * (1.0 + code.eps) + 1e-9
    hits = np.flatnonzero(((counts >= lo) & (counts <= hi)).all(axis=1))
    if hits.size == 0:
        return 0, 0, False
    return int(hits[0]) // code.w_nu, int(hits[0]) % code.w_nu, True


# BSC(0.2) test channel: no zero-mass (x, u) cell. At eps = 0.15 its
# windows hold no integer count for n in {4, 8, 12}, so its code takes a
# wider eps, with rates of its own.
WIDE_EPS = 0.5
WIDE_RATES = Rates(r_u=1.0, r_u_prime=0.25, r_v=0.0, r_v_prime=0.0)


class TestEncodeAlice:
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("tc, epsilon, rates", [
        (TC_ID, 0.15, None), (TestChannel.bsc(0.2), WIDE_EPS, WIDE_RATES)],
        ids=["identity", "bsc0.2"])
    def test_matches_full_scan(self, tc, epsilon, rates, n):
        code = ReconCode.generate(J_BSC, tc, n=n, epsilon=epsilon, seed=n,
                                  rates=rates)
        found = 0
        for t in range(120):
            x, _, _ = sample_source(J_BSC, n, _stream(n, 1, t))
            got = _encode_alice(x, code)
            assert got == _scan_encode(x, code)
            found += got[2]
        if n == 4 and rates is not None:
            # cell mass 0.1 at n = 4: the window [0.2, 0.6] holds no count
            assert found == 0
        else:
            assert 0 < found < 120

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_no_typical_word_gives_fallback(self, n):
        # u = x is forced and x = 0^n is not balanced: nothing is typical
        code = bsc_code(n, seed=n)
        x = np.zeros(n, dtype=np.uint8)
        assert _scan_encode(x, code) == (0, 0, False)
        assert _encode_alice(x, code) == (0, 0, False)


def _edge_masses(n, eps):
    """Cell masses that put n p (1 - eps) or n p (1 + eps) on an integer,
    within _COUNT_FUZZ of one on either side, or one ulp off those; and 0."""
    masses = [0.0]
    for scale in (1.0 - eps, 1.0 + eps):
        for k in range(1, n + 2):
            for off in (0.0, 0.5, 1.0, 2.0):
                for sign in (-1.0, 1.0):
                    p = (k + sign * off * _COUNT_FUZZ) / (n * scale)
                    masses += [p, np.nextafter(p, 0.0),
                               np.nextafter(p, 2.0)]
    return np.array([p for p in masses if 0.0 <= p <= 1.0])


@pytest.mark.parametrize("eps", [0.15, 0.3, 0.5])
@pytest.mark.parametrize("n", range(2, 15))
def test_count_windows_equal_float_comparison(n, eps):
    masses = _edge_masses(n, eps)
    lo, hi = _count_windows(masses, eps, n)
    assert np.array_equal(lo, np.round(lo)) and np.array_equal(hi,
                                                               np.round(hi))
    counts = np.arange(n + 1)
    on_edge = 0
    for p, p_lo, p_hi in zip(masses, lo, hi):
        want = oracle.in_float_window(counts, p, eps, n)
        assert np.array_equal((p_lo <= counts) & (counts <= p_hi),
                              want), p
        on_edge += p > 0.0 and (n * p * (1.0 - eps) % 1.0 == 0.0
                                or n * p * (1.0 + eps) % 1.0 == 0.0)
    assert on_edge > 0  # some thresholds are exact integers


# |X| = |U| = 3 with zero-mass (x, u) cells: cells (0,0), (0,1), (1,1) and
# (2,2) carry 1/4 each, so at eps = 0.5 a typical x at n = 4 holds each
# exactly once, and 0^n is never typical
TERNARY_TC = TestChannel([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0]])
TERNARY_J = joint_from_cascade(
    [0.5, 0.25, 0.25], [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
TERNARY_RATES = Rates(r_u=1.2, r_u_prime=0.4, r_v=0.0, r_v_prime=0.0)


def test_ml_tables_fall_back_on_empty_contexts():
    # U = 2 has no mass, and 6 of 9 (x, u) cells have none: each context
    # without mass gets its table's fallback, 0 for p(y|u) and 1/nv for
    # the V layer's conditionals; every other entry is num / den
    tc = TestChannel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    v = np.stack([np.full((3, 2), 0.3), np.full((3, 2), 0.5),
                  np.full((3, 2), 0.8)])
    v[..., 1] = 1.0 - v[..., 0]
    code = ReconCode.generate(
        TERNARY_J, tc, n=4, epsilon=0.5, seed=4, v_given_yu=v,
        rates=Rates(r_u=1.0, r_u_prime=0.25, r_v=0.5, r_v_prime=0.25))
    p_u = code.pmf_xu.reshape(3, 3).sum(axis=0)
    p_yu = code.pmf_yu.reshape(3, 3)
    p_uyv = code.pmf_uyv.reshape(3, 3, 2)
    p_xuv = code.pmf_xuv.reshape(3, 3, 2)
    p_v_u = p_uyv.sum(axis=1)
    assert p_u[2] == 0.0 and (p_xuv.sum(axis=2) == 0.0).sum() == 6

    def guarded(num, den, fallback):
        return np.array([n / d if d > 0.0 else fallback
                         for n, d in zip(num.ravel(), den.ravel())]
                        ).reshape(num.shape)

    def cond_v(p):
        return guarded(p, np.repeat(p.sum(axis=-1), 2), 0.5)

    assert np.array_equal(code.ll_y_given_u, protocol._log_table(
        guarded(p_yu, np.tile(p_u, 3), 0.0)))
    assert np.array_equal(code.ll_v_given_uy,
                          protocol._log_table(cond_v(p_uyv)))
    assert np.array_equal(code.ll_v_given_xu,
                          protocol._log_table(cond_v(p_xuv)))
    assert np.array_equal(code.p_v_cum_by_u, np.cumsum(cond_v(p_v_u),
                                                       axis=1))


@pytest.mark.parametrize("n", [4, 6])
def test_ternary_encoder_matches_full_scan(n, monkeypatch):
    code = ReconCode.generate(TERNARY_J, TERNARY_TC, n=n, epsilon=0.5,
                              seed=n, rates=TERNARY_RATES)
    assert code.pmf_xu.size == 9 and (code.pmf_xu == 0.0).sum() == 5
    # the counts of three blocks with every word: the words fall into 4 or
    # 6 tiles, and chunk edges (11 or 16 blocks) inside the 40-block batch
    monkeypatch.setattr(protocol, "CHUNK_ELEMENTS",
                        3 * code.pmf_xu.size * len(code.u_words))
    x, y, _ = (a.reshape(40, n) for a in sample_source(
        TERNARY_J, 40 * n, _stream(n, 1)))
    x[::5] = 0
    omega, nu_idx, found = _encode_alice(x, code)
    for b in range(40):
        assert (omega[b], nu_idx[b], found[b]) == _scan_encode(x[b], code)
    assert not found[::5].any() and found.any()
    for decoder in ("typicality", "ml"):
        res = reconcile(x, y, code, decoder)
        for b in range(40):
            want = oracle.reconcile(x[b], y[b], code, decoder)
            for f in fields(ReconcileResult):
                assert np.array_equal(getattr(res, f.name)[b],
                                      getattr(want, f.name)), (b, f.name)


class TestReconcile:
    def test_noiseless_always_agrees(self):
        # Y = X and U = X: the typicality encoder either hits the exact
        # codeword on both sides or both fall back to (1, 1)
        j = joint_from_cascade([0.5, 0.5], np.eye(2))
        code = ReconCode.generate(j, TC_ID, n=8, epsilon=0.15, seed=2)
        from seqkey.protocol import _stream
        rng = _stream(99)
        for _ in range(60):
            x, y, _ = sample_source(j, 8, rng)
            res = reconcile(x, y, code)
            assert res.agree
            assert res.b_msg == 1

    def test_error_rate_regression_n12(self):
        # frozen pilot: about P[balanced type] / 2 = 0.113
        code = bsc_code(12, seed=20260816)
        from seqkey.protocol import _stream
        errs = 0
        for t in range(500):
            x, y, _ = sample_source(J_BSC, 12, _stream(20260816, 1, t))
            res = reconcile(x, y, code)
            errs += not res.agree
        assert errs / 500 < 0.15

    def test_under_rate_fails_often(self):
        # R_u below I(X;U|Y) forces huge bins; the ml decoder then picks
        # spurious candidates and the error rate stays bounded away from 0
        code = under_rate_code()
        from seqkey.protocol import _stream
        errs = 0
        for t in range(200):
            x, y, _ = sample_source(J_BSC, 10, _stream(5, 1, t))
            errs += not reconcile(x, y, code, decoder="ml").agree
        assert errs / 200 > 0.5

    def test_decoder_flag_validated(self):
        code = bsc_code(8)
        x, y, _ = sample_source(J_BSC, 8, seed=1)
        with pytest.raises(ParameterError):
            reconcile(x, y, code, decoder="viterbi")

    @pytest.mark.parametrize("decoder", ["typicality", "ml"])
    def test_symbols_outside_alphabet_rejected(self, decoder):
        # these used to pass silently: x = 2 or -1 fell back to a_msg 1,
        # y = 2 fell back under typicality and raised IndexError under ml
        code = bsc_code(8)
        x, y, _ = (a.reshape(3, 8) for a in sample_source(J_BSC, 24,
                                                          seed=1))
        wide_x, wide_y = x.astype(np.int64), y.astype(np.int64)
        for bad_x, bad_y in ((np.where(x == 1, 2, x), y), (wide_x - 1, y),
                             (x.astype(float), y),
                             (x, np.where(y == 1, 2, y)), (x, wide_y - 1),
                             (x, y.astype(float))):
            with pytest.raises(ParameterError, match="symbols"):
                reconcile(bad_x, bad_y, code, decoder)
            with pytest.raises(ParameterError, match="symbols"):
                reconcile(bad_x[0], bad_y[0], code, decoder)
        reconcile(wide_x, wide_y, code, decoder)

    def test_sequence_length_validated(self):
        code = bsc_code(8)
        with pytest.raises(ParameterError):
            reconcile(np.zeros(7, dtype=np.uint8),
                      np.zeros(8, dtype=np.uint8), code)


def _v_channel(nv):
    """p(v | y, u): V copies Y for nv = 2, a noisy three-level view for 3."""
    v = np.zeros((2, 2, nv))
    if nv == 2:
        v[0, :, 0] = v[1, :, 1] = 1.0
    else:
        v[0, :, :] = [0.6, 0.3, 0.1]
        v[1, :, :] = [0.1, 0.3, 0.6]
    return v


# codes for the batch-against-oracle tests; the V layers get several k
# groups of several codewords each, so Alice's window is not one row
BATCH_CODES = {
    "no_v": dict(n=8, epsilon=0.15),
    "nv2": dict(n=8, epsilon=0.15, v_given_yu=_v_channel(2), rates=Rates(
        r_u=1.0, r_u_prime=0.25, r_v=0.5, r_v_prime=0.25)),
    "nv3": dict(n=6, epsilon=0.3, v_given_yu=_v_channel(3), rates=Rates(
        r_u=1.2, r_u_prime=0.3, r_v=0.6, r_v_prime=0.4)),
}


def _batch_code(name):
    return ReconCode.generate(J_BSC, TC_ID, seed=3, **BATCH_CODES[name])


def _blocks(n, count, seed):
    """(x, y, z), each (count, n); every fifth x is 0^n, with which no
    word is typical under the identity test channel."""
    x, y, z = (a.reshape(count, n) for a in sample_source(
        J_BSC, n * count, _stream(seed)))
    x[::5] = 0
    return x, y, z


class TestBatchedReconcile:
    """The batched stages against the block-by-block oracle."""

    # at 1,200 blocks the default budget cuts the encoder's batch too;
    # at 100 elements every stage's chunk edges fall inside 7 blocks; at 4,
    # fewer than one candidate's n symbols, every tile holds one candidate
    # and every chunk one block
    @pytest.mark.parametrize("blocks, chunk", [(1, None), (7, 100), (7, 4),
                                               (1200, None)])
    @pytest.mark.parametrize("decoder", ["typicality", "ml"])
    @pytest.mark.parametrize("name", sorted(BATCH_CODES))
    def test_matches_oracle_block_for_block(self, name, decoder, blocks,
                                            chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(protocol, "CHUNK_ELEMENTS", chunk)
        code = _batch_code(name)
        x, y, z = _blocks(code.n, blocks, seed=blocks)
        res = reconcile(x, y, code, decoder)
        eve = _decode_bob(z, res.a_msg - 1, code, decoder)
        assert res.agree.shape == (blocks,) and res.agree.dtype == bool
        for b in range(blocks):
            want = oracle.reconcile(x[b], y[b], code, decoder)
            for f in fields(ReconcileResult):
                assert np.array_equal(getattr(res, f.name)[b],
                                      getattr(want, f.name)), (b, f.name)
            assert res.agree[b] == want.agree
            want_eve = oracle.decode_bob(z[b], int(res.a_msg[b]) - 1, code,
                                         decoder)
            for got, ref in zip(eve, want_eve):
                assert np.array_equal(got[b], ref), b
        misses = ~res.alice_found
        assert misses[::5].all() and (blocks < 1200 or not misses.all())
        assert (res.a_msg[misses] == 1).all()
        assert (res.s_u[misses] == code.u_codebook[0]).all()

    def test_single_block_gives_0d_fields(self):
        code = _batch_code("nv2")
        x, y, _ = _blocks(code.n, 2, seed=4)
        res = reconcile(x[1], y[1], code, "ml")
        want = oracle.reconcile(x[1], y[1], code, "ml")
        for f in fields(ReconcileResult):
            got = getattr(res, f.name)
            assert np.shape(got) == np.shape(getattr(want, f.name))
            assert np.array_equal(got, getattr(want, f.name))
        assert np.ndim(res.agree) == 0 and res.agree == want.agree

    def test_leading_axes_carry_through(self):
        code = _batch_code("nv3")
        x, y, _ = _blocks(code.n, 12, seed=8)
        flat = reconcile(x, y, code, "ml")
        grid = reconcile(x.reshape(3, 4, -1), y.reshape(3, 4, -1), code,
                         "ml")
        for f in fields(ReconcileResult):
            got, want = getattr(grid, f.name), getattr(flat, f.name)
            assert got.shape == (3, 4) + want.shape[1:]
            assert np.array_equal(got.reshape(want.shape), want)
        assert grid.agree.shape == (3, 4)

    def test_v_codebook_drawn_once_per_bin(self, monkeypatch):
        code = _batch_code("nv2")
        x, y, _ = _blocks(code.n, 300, seed=9)
        omega, alice_nu, _ = _encode_alice(x, code)
        bob_nu, _ = _decode_u(y, omega, code, "ml")
        drawn = []
        draw = ReconCode.v_codebook

        def counted(self, omega_idx, nu_idx):
            drawn.append((omega_idx, nu_idx))
            return draw(self, omega_idx, nu_idx)

        monkeypatch.setattr(ReconCode, "v_codebook", counted)
        reconcile(x, y, code, "ml")
        bins = set(zip(omega.tolist(), alice_nu.tolist())) | set(
            zip(omega.tolist(), bob_nu.tolist()))
        assert sorted(drawn) == sorted(bins)
        assert len(bins) < 2 * 300  # shared bins were drawn once

    def test_peak_memory_follows_chunk_budget(self):
        # the sim_short_blocks code (n = 8, ml): its 1,200 blocks unchunked
        # peaked at 12.7 MB. A chunk holds at most CHUNK_ELEMENTS / 2
        # candidate symbols, and its largest intermediate, the float64
        # scores, takes 8 bytes per symbol. The sim_long_blocks code
        # (n = 12): the encoder's chunk holds at most CHUNK_ELEMENTS
        # float32 counts and their bool window tests, next to one tile's
        # word one-hot of at most CHUNK_ELEMENTS / 8 float32 entries. The
        # under-rate code (n = 10, ml): one block's 11,586 candidates
        # peaked at 1.35 MB before they were tiled. The nv3 code (n = 6,
        # typicality): its V stages count 12 cells per candidate, more than
        # its n symbols, so a chunk sized by n alone overruns the budget
        for code, blocks, decoder in ((bsc_code(8), 1200, "ml"),
                                      (bsc_code(12), 40, "typicality"),
                                      (under_rate_code(), 4, "ml"),
                                      (_batch_code("nv3"), 600,
                                       "typicality")):
            n = code.n
            x, y, _ = _blocks(n, blocks, seed=5)
            reconcile(x[:1], y[:1], code, decoder)
            tracemalloc.start()
            try:
                reconcile(x, y, code, decoder)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * protocol.CHUNK_ELEMENTS, (n, peak)

    @pytest.mark.parametrize("blocks", [1200, 4800])
    @pytest.mark.parametrize("decoder", ["typicality", "ml"])
    @pytest.mark.parametrize("name", ["no_v", "nv2", "nv3", "n12"])
    def test_peak_memory_follows_stated_bound(self, name, decoder, blocks):
        # README's bound: the chunk budget (8 CHUNK_ELEMENTS bytes), the V
        # books the call holds (one byte per symbol) and the arrays with
        # one entry per block: about ten 8-byte indices and scores and a
        # few flags (at most 96 bytes), the int16 cell codes of its inputs
        # with their scaled copies inside a scan, and its uint8 result rows
        # (at most 16 bytes a symbol). The nv3 code at ml and 1,200 blocks
        # peaked at 587,750 B, over the chunk budget alone; at 4,800
        # blocks every case here is over 0.9 MB. The no-V n = 8 code holds
        # one all-zero book and at ml and 4,800 blocks peaked at
        # 1,067,208 B; the n = 12 code, whose encoder scans 4,096 words,
        # at 1,201,580 B
        code = bsc_code(12) if name == "n12" else _batch_code(name)
        x, y, _ = _blocks(code.n, blocks, seed=5)
        omega, alice_nu, _ = _encode_alice(x, code)
        bob_nu, _ = _decode_u(y, omega, code, decoder)
        bins = set(zip(omega.tolist(), alice_nu.tolist())) | set(
            zip(omega.tolist(), bob_nu.tolist()))
        books = ((len(bins) if code.nv_size > 1 else 1)
                 * code.w_k * code.w_l * code.n)
        reconcile(x[:1], y[:1], code, decoder)
        tracemalloc.start()
        try:
            reconcile(x, y, code, decoder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * CHUNK + books + 16 * (code.n + 6) * blocks
        assert peak <= bound, (peak, bound)

    def test_batch_shapes_validated(self):
        code = bsc_code(8)
        x = np.zeros((3, 8), dtype=np.uint8)
        for bad_x, bad_y in ((x, x[:2]), (x[:, :7], x[:, :7]),
                             (x[:0], x[:0]), (np.uint8(0), np.uint8(0))):
            with pytest.raises(ParameterError):
                reconcile(bad_x, bad_y, code)


class TestPrivacyAmplify:
    def test_identity_multiplier(self):
        s = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)
        one = np.zeros(12, dtype=np.uint8)
        one[-1] = 1
        assert np.array_equal(privacy_amplify(s, one, 5), s[:5])

    def test_zero_multiplier(self):
        s = np.ones(12, dtype=np.uint8)
        zero = np.zeros(12, dtype=np.uint8)
        assert np.array_equal(privacy_amplify(s, zero, 4),
                              np.zeros(4, dtype=np.uint8))

    def test_collision_rate_two_universal(self):
        # collision iff the top k bits of (s xor s') * seed vanish; the
        # exact rate over uniform seeds is 2^-k
        from seqkey.gf2n import gf_mul
        rng = np.random.default_rng(3)
        n, k, m = 16, 4, 100_000
        s = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        sp = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        fix = s == sp
        sp[fix] ^= np.uint64(1)
        seeds = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        prod = gf_mul(s ^ sp, seeds, n)
        coll = (prod >> np.uint64(n - k)) == 0
        assert coll.mean() <= (1 + 0.05) / (1 << k)

    def test_leftover_hash_exhaustive(self):
        # s uniform on a random 2^h subset of the field, seed public and
        # uniform; the exact joint TV from uniform obeys the 2^-(h-k)/2
        # leftover bound, computed by full enumeration at N = 12
        from seqkey.gf2n import gf_mul
        n, k, h = 12, 3, 9
        rng = np.random.default_rng(8)
        subset = rng.choice(1 << n, size=1 << h, replace=False).astype(
            np.uint64)
        seeds = np.arange(1 << n, dtype=np.uint64)
        counts = np.zeros((1 << n, 1 << k))
        for s in subset:
            key = gf_mul(np.uint64(s), seeds, n) >> np.uint64(n - k)
            np.add.at(counts, (seeds.astype(int), key.astype(int)), 1.0)
        joint = counts / (1 << h) / (1 << n)
        tv = 0.5 * np.abs(joint - 1.0 / (1 << (n + k))).sum()
        assert tv <= 2.0 ** (-(h - k) / 2)

    def test_batch_equals_row_by_row(self):
        rng = np.random.default_rng(21)
        for n, k in ((12, 5), (64, 8), (64, 64)):
            s = rng.integers(0, 2, size=(4, 3, n)).astype(np.uint8)
            seeds = rng.integers(0, 2, size=(4, 1, n)).astype(np.uint8)
            keys = privacy_amplify(s, seeds, k)
            assert keys.shape == (4, 3, k) and keys.dtype == np.uint8
            for i in range(4):
                for j in range(3):
                    assert np.array_equal(
                        keys[i, j], privacy_amplify(s[i, j], seeds[i, 0], k))

    def test_matches_integer_product(self):
        # MSB-first bits in, the top k bits of the field product out
        from seqkey.gf2n import gf_mul
        rng = np.random.default_rng(22)
        n, k = 64, 10
        s = rng.integers(0, 2, size=n).astype(np.uint8)
        seed = rng.integers(0, 2, size=n).astype(np.uint8)
        prod = int(gf_mul(int("".join(map(str, s)), 2),
                          int("".join(map(str, seed)), 2), n))
        want = [(prod >> (n - 1 - i)) & 1 for i in range(k)]
        assert privacy_amplify(s, seed, k).tolist() == want

    def test_domain(self):
        s = np.zeros(12, dtype=np.uint8)
        with pytest.raises(ParameterError):
            privacy_amplify(s, np.zeros(11, dtype=np.uint8), 2)
        with pytest.raises(ParameterError):
            privacy_amplify(s, s, 13)
        with pytest.raises(ParameterError):
            privacy_amplify(np.zeros(7, dtype=np.uint8),
                            np.zeros(7, dtype=np.uint8), 2)
        with pytest.raises(ParameterError):
            privacy_amplify(s + 2, s, 2)


class TestLeakageEstimate:
    def test_independent_pairs_within_null_band(self):
        rng = np.random.default_rng(12)
        keys = list(rng.integers(0, 4, size=1500))
        views = list(rng.integers(0, 6, size=1500))
        from seqkey.protocol import _stream
        mi, null_mean, null_sd = leakage_estimate(keys, views, _stream(4))
        assert abs(mi - null_mean) <= 4.0 * max(null_sd, 1e-6)

    def test_perfect_dependence_detected(self):
        keys = [i % 4 for i in range(1000)]
        from seqkey.protocol import _stream
        mi, null_mean, _ = leakage_estimate(keys, list(keys), _stream(4))
        assert mi == pytest.approx(2.0, abs=1e-9)
        assert null_mean < 0.1

    def test_empty_rejected(self):
        from seqkey.protocol import _stream
        with pytest.raises(ParameterError):
            leakage_estimate([], [], _stream(0))

    @pytest.mark.parametrize("trials", [7, 150, 500, 2000])
    def test_equals_dict_loop_oracle(self, trials):
        # numpy-int and int keys, a single distinct key, tuple views from
        # one distinct view up to all distinct (saturated)
        rng = np.random.default_rng(trials)
        cases = 0
        for n_keys in (1, 4, 16, trials):
            for n_views in (1, 6, trials // 3, trials):
                keys = list(rng.integers(0, n_keys, trials))
                if cases % 2:
                    keys = [int(key) for key in keys]
                if n_views == trials:
                    ids = rng.permutation(trials)
                else:
                    ids = rng.integers(0, n_views, trials)
                views = [(int(v) % 5, (int(v), trials - int(v)))
                         for v in ids]
                got = leakage_estimate(keys, views, _stream(cases, 4))
                want = leakage_oracle.leakage_estimate(
                    keys, views, _stream(cases, 4))
                assert got == want, (n_keys, n_views)
                assert all(type(v) is float for v in got)
                cases += 1


class TestProtocolParams:
    def test_validation(self):
        good = dict(n=8, m=1, k=4, epsilon=0.15, trials=10, seed=0)
        ProtocolParams(**good)
        for bad in (dict(good, n=1), dict(good, n=15), dict(good, m=0),
                    dict(good, k=0), dict(good, k=9),
                    dict(good, epsilon=1.0), dict(good, trials=0),
                    dict(good, decoder="nope")):
            with pytest.raises(ParameterError):
                ProtocolParams(**bad)

    def test_shared_checks_give_one_message(self):
        # the block length and the decoder name were each checked in two
        # places, with two wordings
        good = dict(n=8, m=1, k=4, epsilon=0.15, trials=10, seed=0)
        x, y, _ = sample_source(J_BSC, 8, seed=1)
        for field, bad, call in (
                ("n", 15, lambda: bsc_code(15)),
                ("n", 2.0, lambda: bsc_code(2.0)),
                ("decoder", "nope",
                 lambda: reconcile(x, y, bsc_code(8), "nope"))):
            with pytest.raises(ParameterError) as from_params:
                ProtocolParams(**dict(good, **{field: bad}))
            with pytest.raises(ParameterError) as from_call:
                call()
            assert str(from_params.value) == str(from_call.value)

    @pytest.mark.parametrize("bad", [1.7, 2.9, True, -1])
    def test_seeds_fail_loudly_everywhere(self, bad):
        # generate and sample_source took int(seed), so 1.7 and True ran
        # as seed 1, and -1 escaped as numpy's bare ValueError
        good = dict(n=8, m=1, k=4, epsilon=0.15, trials=10)
        with pytest.raises(ParameterError) as from_params:
            ProtocolParams(seed=bad, **good)
        for call in (lambda: bsc_code(8, seed=bad),
                     lambda: sample_source(J_BSC, 8, bad)):
            with pytest.raises(ParameterError) as from_call:
                call()
            assert str(from_call.value) == str(from_params.value)

    def test_seed_must_be_non_negative_int(self):
        # a negative seed used to reach numpy's SeedSequence and raise
        # ValueError there
        good = dict(n=8, m=1, k=4, epsilon=0.15, trials=10)
        for bad in (-1, 1.5, "3"):
            with pytest.raises(ParameterError, match="seed"):
                ProtocolParams(seed=bad, **good)


class TestRunExperiment:
    def test_deterministic(self):
        params = ProtocolParams(n=8, m=1, k=4, epsilon=0.15, trials=60,
                                seed=17)
        assert run_experiment(J_BSC, TC_ID, params) == run_experiment(
            J_BSC, TC_ID, params)

    @pytest.mark.parametrize("trials", [10, None])
    def test_runs_never_draw_the_whole_u_codebook(self, trials,
                                                  monkeypatch):
        # the demo config, and with 10 trials the sim_long_blocks
        # benchmark's: every row a run reads lies in the head
        cfg = read_config(demo_config_path())
        codes = []
        generate = ReconCode.generate

        def keep(*args, **kwargs):
            codes.append(generate(*args, **kwargs))
            return codes[-1]

        monkeypatch.setattr(ReconCode, "generate", keep)
        j = BscCascadeSource(cfg["p"], cfg["q"], prior=cfg["prior"]).joint()
        run_experiment(j, TC_ID, ProtocolParams(
            n=cfg["n"], m=cfg["m"], k=cfg["k"], epsilon=cfg["epsilon"],
            trials=trials or cfg["trials"], seed=cfg["seed"],
            decoder=cfg["decoder"]))
        (code,) = codes
        assert len(code.u_head) < code.w_u * code.w_nu == 176334
        assert "u_codebook" not in vars(code)

    def test_eavesdropper_alphabet_must_match_y(self):
        j = joint_from_cascade([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                               [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
        with pytest.raises(ParameterError, match="differs from"):
            run_experiment(j, TC_ID, ProtocolParams(
                n=8, m=1, k=4, epsilon=0.15, trials=5, seed=0))

    @pytest.mark.parametrize("decoder, want", [
        ("typicality", dict(
            p_e=0.38333333333333336, leakage_est=5.74022392894185,
            leakage_bias=5.74022392894185,
            leakage_null_sd=8.005932084973442e-16,
            uniformity_est=2.25977607105815,
            alice_encode_rate=0.24583333333333332, bob_decode_rate=0.0,
            eve_match_rate=0.6166666666666667)),
        ("ml", dict(
            p_e=0.85, leakage_est=5.773557262275184,
            leakage_bias=5.773557262275183,
            leakage_null_sd=6.843874359417885e-16,
            uniformity_est=2.226442737724817,
            alice_encode_rate=0.24583333333333332, bob_decode_rate=1.0,
            eve_match_rate=0.0)),
    ])
    def test_v_layer_metrics_frozen(self, decoder, want):
        # V copies Y, so every block hashes U bits then V bits (N = 64);
        # values frozen from a per-trial hash before trials were batched
        v_copies_y = np.zeros((2, 2, 2))
        v_copies_y[0, :, 0] = v_copies_y[1, :, 1] = 1.0
        mets = run_experiment(J_BSC, TC_ID, ProtocolParams(
            n=8, m=4, k=8, epsilon=0.15, trials=60, seed=3,
            decoder=decoder), v_given_yu=v_copies_y)
        assert mets == RunMetrics(trials=60, n_bits=64, **want)

    def test_hash_length_guard(self):
        # 2 * 3 symbols = 6 bits: no field of that size
        with pytest.raises(InfeasibleError):
            run_experiment(J_BSC, TC_ID, ProtocolParams(
                n=3, m=2, k=4, epsilon=0.15, trials=5, seed=0))

    def test_degenerate_eavesdropper_leaks_everything(self):
        # X = Y = Z: reconciliation is exact and the eavesdropper decodes
        # exactly like Bob, so the key MI saturates at k bits
        j = joint_from_cascade([0.5, 0.5], np.eye(2), np.eye(2))
        mets = run_experiment(j, TC_ID, ProtocolParams(
            n=10, m=1, k=2, epsilon=0.15, trials=800, seed=5))
        assert mets.p_e < 0.01
        assert mets.eve_match_rate > 0.99
        assert mets.leakage_est > 0.9 * 2
        assert mets.leakage_bias < 0.3

    def test_independent_eavesdropper_uniformity(self):
        # Z pure noise: the hash output is near-uniform. The leakage
        # estimate stays well above its null here, which is real: at
        # eps = 0.15 most trials key on the public fallback codeword and
        # the bin index pins the rest, so a code-aware eavesdropper
        # genuinely predicts the key often. Secrecy at this desk scale
        # requires rates no code of this slack can offer.
        j = BscCascadeSource(0.1, 0.5).joint()
        mets = run_experiment(j, TC_ID, ProtocolParams(
            n=10, m=4, k=2, epsilon=0.15, trials=2000, seed=5))
        assert mets.uniformity_est < 0.05
        assert mets.leakage_est - mets.leakage_bias > 0.3
        assert mets.eve_match_rate > 0.5

    def test_over_extraction_not_uniform(self):
        # skewed source, k = full input length: entropy cannot keep up
        j = BscCascadeSource(0.1, 0.3, prior=0.8).joint()
        mets = run_experiment(j, TC_ID, ProtocolParams(
            n=8, m=1, k=8, epsilon=0.15, trials=300, seed=5))
        assert mets.uniformity_est > 0.5

    def test_slack_buys_reliability_with_ml_decoder(self):
        # rate-slack grid with the typicality parameter held fixed: the
        # code's windows use epsilon, not the slack of the designed rates
        pes = []
        for eps_rate in (0.05, 0.15, 0.25):
            rates = design_rates(J_BSC, TC_ID, epsilon=eps_rate)
            mets = run_experiment(J_BSC, TC_ID, ProtocolParams(
                n=8, m=1, k=4, epsilon=0.15, trials=500, seed=9,
                decoder="ml", rates=rates))
            pes.append(mets.p_e)
        se = math.sqrt(0.25 / 500)
        assert pes[1] <= pes[0] + 1.64 * se * math.sqrt(2)
        assert pes[2] <= pes[1] + 1.64 * se * math.sqrt(2)

    def test_full_pipeline_reliability_at_n12(self):
        # end-to-end smoke at the analytic P_e of about 0.11 (module
        # docstring); the n sweep lives in the acceptance suite
        mets = run_experiment(J_BSC, TC_ID, ProtocolParams(
            n=12, m=1, k=8, epsilon=0.15, trials=300, seed=42))
        assert mets.p_e < 0.15
        assert mets.alice_encode_rate > 0.1


# ------------------------------------------------ skipped scans are exact

def _all_words(size, n):
    """Every word of length n over range(size), in lexicographic order."""
    return np.indices((size,) * n).reshape(n, -1).T


def _ternary_code():
    return ReconCode.generate(TERNARY_J, TERNARY_TC, n=4, epsilon=0.5,
                              seed=4, rates=TERNARY_RATES)


# (flat cell masses, context alphabet): zero-mass cells (identity and
# ternary (x, u)), none (BSC(0.2) and skewed (x, u)), Bob's (y, u) cells,
# whose 0.05 masses hold no count at these n, and contexts of unequal mass
# (prior 0.3), the only ones here where a context can exceed its caps
# while every other context still meets its needs
FEASIBILITY_PMFS = {
    "xu_identity": lambda: (bsc_code(4).pmf_xu, 2),
    "xu_prior0.3": lambda: (ReconCode.generate(
        BscCascadeSource(0.1, 0.3, prior=0.3).joint(), TC_ID, n=4,
        epsilon=0.15, seed=0).pmf_xu, 2),
    "xu_bsc0.2": lambda: (ReconCode.generate(
        J_BSC, TestChannel.bsc(0.2), n=4, epsilon=WIDE_EPS, seed=0,
        rates=WIDE_RATES).pmf_xu, 2),
    "xu_skew": lambda: (ReconCode.generate(
        J_BSC, TC_SKEW, n=4, epsilon=WIDE_EPS, seed=0,
        rates=WIDE_RATES).pmf_xu, 2),
    "yu_identity": lambda: (bsc_code(4).pmf_yu, 2),
    "xu_ternary": lambda: (_ternary_code().pmf_xu, 3),
    "yu_ternary": lambda: (_ternary_code().pmf_yu, 3),
}


@pytest.mark.parametrize("eps", [0.15, 0.3, 0.5])
@pytest.mark.parametrize("name, n", [
    (name, n) for name in FEASIBILITY_PMFS if not name.endswith("ternary")
    for n in (4, 6, 8)] + [("xu_ternary", 4), ("yu_ternary", 4)])
def test_feasibility_equals_brute_force(name, n, eps, monkeypatch):
    # a context word is feasible exactly when some word of U^n is typical
    # with it; checked for every context word, a few blocks per chunk
    pmf, ctx_size = FEASIBILITY_PMFS[name]()
    sym = pmf.size // ctx_size
    words, contexts = _all_words(sym, n), _all_words(ctx_size, n)
    want = [oracle.typical_mask(ctx * sym + words, pmf, eps, n).any()
            for ctx in contexts]
    monkeypatch.setattr(protocol, "CHUNK_ELEMENTS", 20 * (n + ctx_size))
    got = protocol._feasible(contexts, ctx_size,
                             *_count_windows(pmf, eps, n))
    assert got.tolist() == want


def test_encoder_on_repeated_infeasible_and_untypical_blocks():
    # 512 rows, fewer than the 4,096 words of n = 12: under the identity
    # test channel a balanced x is feasible but typical only with itself,
    # which the codebook may not hold; an unbalanced x is infeasible
    code = bsc_code(12, seed=3, rates=Rates(r_u=0.5, r_u_prime=0.25,
                                            r_v=0.0, r_v_prime=0.0))
    words = _all_words(2, 12).astype(np.uint8)
    balanced = words[words.sum(axis=1) == 6]
    held = np.isin(balanced @ (1 << np.arange(12)),
                   code.u_words @ (1 << np.arange(12)))
    assert held.any() and not held.all()
    x = np.concatenate([balanced[held][:15], balanced[~held][:15],
                        words[:15]])
    x = np.concatenate([x, x[::-1], x[::3]])  # every block again
    lo, hi = _count_windows(code.pmf_xu, code.eps, 12)
    feasible = protocol._feasible(x, 2, lo, hi)
    assert feasible[:30].all() and not feasible[30:45].any()
    omega, nu_idx, found = _encode_alice(x, code)
    for b in range(len(x)):
        assert (omega[b], nu_idx[b], found[b]) == _scan_encode(x[b], code)
    assert found[:15].all() and not found[15:45].any()


@pytest.mark.parametrize("decoder", ["typicality", "ml"])
@pytest.mark.parametrize("name", sorted(BATCH_CODES))
def test_repeated_blocks_match_oracle(name, decoder):
    # each x twice, with a different y the second time
    code = _batch_code(name)
    x, y, z = _blocks(code.n, 30, seed=11)
    _, y2, z2 = _blocks(code.n, 30, seed=12)
    x, y, z = (np.concatenate(pair) for pair in ((x, x[::-1]), (y, y2),
                                                  (z, z2)))
    res = reconcile(x, y, code, decoder)
    eve = _decode_bob(z, res.a_msg - 1, code, decoder)
    for b in range(len(x)):
        want = oracle.reconcile(x[b], y[b], code, decoder)
        for f in fields(ReconcileResult):
            assert np.array_equal(getattr(res, f.name)[b],
                                  getattr(want, f.name)), (b, f.name)
        want_eve = oracle.decode_bob(z[b], int(res.a_msg[b]) - 1, code,
                                     decoder)
        for got, ref in zip(eve, want_eve):
            assert np.array_equal(got[b], ref), b
