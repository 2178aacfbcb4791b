"""Desk-scale Monte-Carlo simulation of sequential key distillation.

One experiment = a fixed random code, then independent trials of:
i.i.d. source sampling, two-message Wyner-Ziv style reconciliation
(typicality encoding into a doubly indexed codebook, bin index exchanged,
conditional covering of the V layer), and privacy amplification of the
reconciled sequence pair through the GF(2^N) multiplication hash. The
empirical outputs are the reliability, leakage, and uniformity metrics.

The reconciliation steps follow the random-coding protocol literally,
lowest-index tie-breaks and the (1,1) fallback included. Alice's encoder,
Bob's U decode and V cover, Alice's V recovery and Eve's decode are each
one scan over candidate words (_pick). Typicality depends only on the
joint type of a block with a word, so the encoder tests each distinct U
word once, at most min(W, |U|^n) of them for a W-row codebook, and answers
with the lowest row holding a typical word, as a scan of every row would.
Every test compares integer joint counts with integer windows computed
once from the float thresholds (_count_windows), which decides exactly as
the float comparison would. ML sums each candidate's log-likelihoods over
its positions, and that float sum settles ties between words of equal
likelihood, so a word in a higher row can win one.

A scan runs only for blocks whose answer it can change:

* Alice's pick depends on x alone, so each distinct source block is
  encoded once and the answers are indexed back to the blocks
  (_group_rows): the 1,200 blocks of n = 8 in 150 trials of m = 8 hold at
  most 2^8 distinct x.
* A typicality block whose context type admits no joint count table
  inside the windows can match no word, so it answers (0, False) unscanned
  (_feasible). At n = 12 a cell of mass 0.05 admits no count at all, so
  Bob's and Eve's typicality decodes of the BSC demo scan nothing, and only
  the balanced x enter the encoder's scan.
* Without a V layer every V codeword is all-zero, so the V cover and the
  V recovery pick row 0 under either decoder; neither is run.

Every stage takes a batch of blocks, (..., n) arrays whose leading axes
are batch axes; one block is a batch of one. The scan takes candidates in
tiles and blocks in chunks, within CHUNK_ELEMENTS, so its intermediates
stay small for any number of blocks or candidates. With a V layer, each
call draws the codebook of each distinct (omega, nu) bin once, for every
block in that bin, and holds those codebooks (one byte per symbol) until
it returns. Two consequences at n <= 14 are worth knowing before reading
any numbers:

* Robust typicality is brutally quantized at these block lengths: a cell
  with mass 0.05 admits no valid count at all below n = 18, so the decoder
  falls back to index 1 almost always. Reliability then hinges on the
  encoder's bin position, not on channel noise. The "ml" decoder flag
  (maximum conditional likelihood within the bin) restores the asymptotic
  intuition that more rate slack buys more reliability.
* Exact leakage conditioning is exponentially large, so the eavesdropper
  view is coarsened to (her decoded key, the type of z^N). She decodes by
  running Bob's procedure on z. The plug-in MI estimate carries a bias
  that is measured by shuffling the key column against the views; both
  numbers are reported.

Every symbol counts its uniform against the cuts of a cumulative pmf
(_count_cuts), as Generator.choice's search does: U codebook symbols
against p_U, each V codebook column against p_{V|u} of its U symbol, the
source against the joint's masses in flat order. A codebook's uniforms
are drawn in chunks of CHUNK_ELEMENTS into one reused buffer, so a draw
holds its symbols and one chunk. The distinct U words and the lowest row
of each come from a table indexed by the words' base-|U| keys, without a
sort. The U codebook is drawn chunk by chunk only until every one of the
|U|^n words has appeared and the rows reach the end of the bin holding
the last word's first row (_draw_u_head). Every row a run reads lies in
that head: Alice picks first rows, Bob and Eve scan her published bin,
and the V codebooks key off those rows. The whole codebook is drawn only
when a row past the head is read.

run_experiment draws trial t's source uniforms from the Philox stream
keyed by SeedSequence(seed, spawn_key=(1, t)) and its hash seed from
spawn key (3, t). The keys of both streams for every trial come from one
array pass of SeedSequence's uint32 hash mix (_philox_keys), and one
reused Philox is set to each key with counter 0, so every draw equals
that of a fresh generator per trial. A hash seed is taken as raw Philox
words, the top bit of each 32-bit half a seed bit, low half first, which
is what Generator.integers(0, 2, N) draws (_trial_draws). The leakage
estimate and its 32 shuffles, drawn by one Generator.permuted call, are
one array pass that adds each plug-in sum's terms in the order, and with
the log2, of a dict loop over the pairs (leakage_estimate).

Discrete-side conventions: rates and information quantities in bits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from seqkey.errors import InfeasibleError, ParameterError
from seqkey.gf2n import POLY_TAPS, gf_mul
from seqkey.measures import (
    LN2,
    DiscreteJoint,
    check_int,
    check_stochastic,
    entropy_nats,
)
from seqkey.optimizer import TestChannel, rate_constraint

LOG_ZERO = -1e18          # finite stand-in for log 0 in ML scores
MAX_U_CODEWORDS = 1 << 22  # U codebook memory budget (rows)
MAX_V_CODEWORDS = 1 << 16  # per-bin V codebook budget
CHUNK_ELEMENTS = 1 << 16   # symbols one pick or draw holds at once
SHUFFLE_ROUNDS = 32
_COUNT_FUZZ = 1e-9         # absorbs float error at integer window edges
# numpy's SeedSequence constants: pool size, hashmix and mix multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _stream(seed, *ids):
    """Counter-based generator keyed by (seed, stream path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(ids))
    return np.random.Generator(np.random.Philox(ss))


def _hashmix(value, const):
    """SeedSequence's hashmix of uint32 arrays; returns (value, next
    const), the multiplier const advanced as numpy advances it."""
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    value = value * np.uint32(const)
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's pool mix of uint32 arrays."""
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ out >> 16


def _philox_keys(seed, streams, trials):
    """(len(streams), trials, 2) uint64 Philox keys of _stream(seed, s, t)
    for each s in streams and t = 0..trials-1:
    SeedSequence(seed, spawn_key=(s, t)).generate_state(2, uint64), by
    numpy's documented uint32 hash mix.

    The entropy is the seed's 32-bit words, little end first, zero-padded
    to the pool of 4, then the spawn key. Each word is a uint32 array: the
    stream ids a column, the trial indices a row, mixed in last, so the
    seed's words are mixed once, each stream's once, and only the trial's
    per key.
    """
    seed = int(seed)
    words = [seed >> s & _MASK32
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    entropy = [np.full(1, w, dtype=np.uint32) for w in words]
    entropy.append(np.array(streams, dtype=np.uint32)[:, None])
    entropy.append(np.arange(trials, dtype=np.uint32))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    const = _INIT_B
    state = []
    for word in pool:  # generate_state: 4 uint32 words, 2 uint64
        word = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word = word * np.uint32(const)
        state.append(word ^ word >> 16)
    state = np.stack(state, axis=-1).astype(np.uint64)
    return state[..., 0::2] | state[..., 1::2] << np.uint64(32)


def _count_cuts(uniforms, cuts, shape):
    """Symbols shaped `shape`, each the number of `cuts` at or below its
    uniform, in the smallest unsigned dtype that holds len(cuts): against
    nondecreasing cuts, np.searchsorted(cuts, u, side="right").

    uniforms is an array shaped `shape`, or a Generator whose uniforms are
    those of one rng.random(shape), drawn row chunk by row chunk into one
    reused buffer: the same stream in the same order. Each cut broadcasts
    against one row of symbols, so a cut may differ per column. Rows go in
    chunks of at most CHUNK_ELEMENTS uniforms, so a draw holds its symbols
    and one chunk. Each cut is one pass over the chunk: cheap for the few
    cuts of a small alphabet, linear in their number where a search would
    be logarithmic.
    """
    drawn = isinstance(uniforms, np.random.Generator)
    out = np.zeros(shape, dtype=np.min_scalar_type(len(cuts)))
    step = max(1, min(len(out), CHUNK_ELEMENTS // math.prod(shape[1:])))
    hit = np.empty((step,) + out.shape[1:], dtype=bool)
    if drawn:
        buf = np.empty(hit.shape)
    for first in range(0, len(out), step):
        block = out[first:first + step]
        if drawn:
            u = uniforms.random(out=buf[:len(block)])
        else:
            u = uniforms[first:first + step]
        h = hit[:len(block)]
        for cut in cuts:
            block += np.greater_equal(u, cut, out=h)
    return out


def _draw_symbols(rng, pmf, shape):
    """uint8 symbols i.i.d. from ``pmf``, equal to
    ``rng.choice(len(pmf), shape, p=pmf).astype(np.uint8)``: the same
    uniforms, each counted against the same normalized CDF, in chunks."""
    cdf = pmf.cumsum()
    cdf /= cdf[-1]
    return _count_cuts(rng, cdf[:-1], shape)


def _bits_per_symbol(size):
    return 0 if size <= 1 else (size - 1).bit_length()


def _check_epsilon(epsilon):
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")


def _check_block_length(n):
    return check_int(n, "block length", 2, 14)


def _check_decoder(decoder):
    if decoder not in ("typicality", "ml"):
        raise ParameterError(
            f"decoder must be 'typicality' or 'ml', got {decoder!r}")


def _check_alphabets(names, sizes):
    for name, size in zip(names, sizes):
        if size > 256:
            raise ParameterError(
                f"|{name}| = {size} is over the 256 symbols of a uint8")


@dataclass(frozen=True)
class Rates:
    """Code-construction rates in bits per symbol, each finite. The
    typicality slack is not a rate: a code takes it from its epsilon."""

    r_u: float
    r_u_prime: float
    r_v: float
    r_v_prime: float

    def __post_init__(self):
        for name, rate in vars(self).items():
            if not math.isfinite(rate):
                raise ParameterError(f"{name} must be finite, got {rate!r}")


def design_rates(j, tc_u, v_given_yu=None, epsilon=0.15):
    """R_u = I(X;U|Y) + 6 eps H(U) and companions, all in bits."""
    _check_epsilon(epsilon)
    eps2 = 2.0 * epsilon

    def h(a):
        return float(entropy_nats(a) / LN2)

    p_x = j.marginal((0,))
    p_xy = j.marginal((0, 1))
    p_u = p_x @ tc_u.rows
    h_u = h(p_u)
    p_yu = np.einsum("ab,au->bu", p_xy, tc_u.rows)
    i_yu = h(p_yu.sum(axis=1)) + h_u - h(p_yu)
    r_u = rate_constraint(j, tc_u) + 6.0 * epsilon * h_u
    r_u_prime = i_yu - 3.0 * epsilon * h_u
    if v_given_yu is None:
        r_v = r_v_prime = 0.0
    else:
        v_given_yu = check_stochastic(v_given_yu, "v channel", axis=2,
                                      shape=(j.dims[1], tc_u.u_size, "|V|"))
        # designed joint over (x, y, u, v)
        p4 = np.einsum("ab,au,buv->abuv", p_xy, tc_u.rows, v_given_yu)
        i_v_y_xu = (h(p4.sum(axis=1)) + h(p4.sum(axis=3))
                    - h(p4.sum(axis=(1, 3))) - h(p4))
        p_uv = p4.sum(axis=(0, 1))
        i_v_x_u = (h(p4.sum(axis=(1, 3))) + h(p_uv)
                   - h(p_uv.sum(axis=1)) - h(p4.sum(axis=1)))
        h_v_u = h(p_uv) - h(p_uv.sum(axis=1))
        r_v = i_v_y_xu + 6.0 * eps2 * h_v_u
        r_v_prime = i_v_x_u - 3.0 * eps2 * h_v_u
    return Rates(r_u=r_u, r_u_prime=r_u_prime, r_v=r_v,
                 r_v_prime=r_v_prime)


def _size(rate_bits, n):
    # a rate past the U budget's 22 bits is infeasible whatever the others
    # are; it is refused before 2^(n rate), which may overflow, is formed
    bits = n * max(rate_bits, 0.0)
    if bits > math.log2(MAX_U_CODEWORDS):
        raise InfeasibleError(
            f"rate {rate_bits!r} at n = {n} asks for 2^{bits:g} codewords, "
            "over every codebook budget; lower n or the rates")
    return max(1, math.ceil(2.0 ** bits))


def _count_windows(pmf_flat, eps, n):
    """Integer count windows (lo, hi) of robust typicality per cell:
    |N(c)/n - p(c)| <= eps p(c) holds for an integer count N(c) exactly when
    lo[c] <= N(c) <= hi[c]. Both bounds come from the float64 thresholds,
    widened by _COUNT_FUZZ, which also gives a zero-mass cell lo = hi = 0."""
    return (np.ceil(n * pmf_flat * (1.0 - eps) - _COUNT_FUZZ),
            np.floor(n * pmf_flat * (1.0 + eps) + _COUNT_FUZZ))


def _cell_dtype(cells):
    """The integer dtype of flat cell codes below `cells`: int16 where
    they fit, half the bytes of int32."""
    return np.int16 if cells <= 1 << 15 else np.int32


def _feasible(ctx, ctx_size, lo, hi):
    """Per block of (B, n) context symbols: whether some integer joint
    count table over the flat cells c |S| + s lies in the windows
    [max(lo, 0), hi] with row sums N(c), the block's context counts. Any
    such table is the joint type of some word, so a block without one has
    no typical candidate. It exists exactly when no cell's window is empty
    and every context c has sum_s need(c, s) <= N(c) <= sum_s cap(c, s).
    The contexts are counted by one bincount per chunk of blocks, at most
    CHUNK_ELEMENTS / 4 symbols and counts together."""
    need = np.maximum(lo, 0.0).reshape(ctx_size, -1)
    cap = hi.reshape(ctx_size, -1)
    if (need > cap).any():
        return np.zeros(len(ctx), dtype=bool)
    least, most = need.sum(axis=1), cap.sum(axis=1)
    ok = np.empty(len(ctx), dtype=bool)
    step = max(1, CHUNK_ELEMENTS // (4 * (ctx.shape[-1] + ctx_size)))
    for first in range(0, len(ctx), step):
        block = ctx[first:first + step]
        ids = block.astype(np.intp)
        ids += ctx_size * np.arange(len(block))[:, None]
        counts = np.bincount(ids.ravel(), minlength=len(block) * ctx_size)
        counts = counts.reshape(-1, ctx_size)
        ok[first:first + step] = ((counts >= least)
                                  & (counts <= most)).all(axis=1)
    return ok


def _pick(ctx, ctx_size, table, start, width, pmf, ll, eps, decoder):
    """(row, found) per block among its candidate words
    table[start:start + width], start broadcasting against the leading axes
    of ctx; with start None every block shares table[:width] (typicality
    only: Alice's encoder over the distinct U words).

    ctx holds (..., n) context symbols in [0, ctx_size); context c and
    candidate symbol s form the cell c |S| + s, |S| = pmf.size // ctx_size,
    of pmf and ll. Typicality: the lowest row whose joint counts lie in
    pmf's integer windows (_count_windows), else (0, False). ML: the lowest
    row with the largest float sum (ndarray.sum) of ll over its positions;
    words of one joint type are equally likely, yet the higher can win on
    the last bit.

    A typicality block whose context type admits no count table inside
    the windows (_feasible) answers (0, False) without being scanned, as
    its scan would; when a cell's window holds no count, that is every
    block. Tiles of candidates, in order, outer; the blocks still
    scanning, in chunks, inside, and the scan ends once none is left. A
    block leaves a typicality scan at its first typical tile; ML replaces
    a row only on a strictly larger score. A chunk holds
    at most CHUNK_ELEMENTS / 2 per-block symbols for ML (float64 terms),
    CHUNK_ELEMENTS / 4 symbols and counts together for typicality (one
    bincount; intp ids, int64 counts), and for shared candidates
    CHUNK_ELEMENTS float32 counts, the product of the blocks' one-hot with
    a tile's word one-hot of at most CHUNK_ELEMENTS / 8 entries.
    """
    lead, n = ctx.shape[:-1], ctx.shape[-1]
    ctx = ctx.reshape(-1, n)
    cells, sym = pmf.size, pmf.size // ctx_size
    row = np.zeros(len(ctx), dtype=np.intp)
    found = np.zeros(len(ctx), dtype=bool)
    best = np.full(len(ctx), -np.inf)
    lo, hi = _count_windows(pmf, eps, n)
    live = np.ones(len(ctx), dtype=bool) if decoder == "ml" \
        else _feasible(ctx, ctx_size, lo, hi)  # still scanning
    # exact in float32: the windows are integers
    lo, hi = (w.reshape(cells, 1).astype(np.float32) for w in (lo, hi))
    if start is None:
        tile = max(1, min(width, CHUNK_ELEMENTS // (8 * n * sym)))
        step = max(1, min(len(ctx), CHUNK_ELEMENTS // (cells * tile)))
        buf = np.empty(step * cells * tile, dtype=np.float32)
        symbols = np.arange(ctx_size)[:, None]
    else:
        size = n if decoder == "ml" else 2 * (n + cells)
        tile = max(1, min(width, CHUNK_ELEMENTS // (2 * size)))
        step = max(1, CHUNK_ELEMENTS // (2 * tile * size))
        base = np.multiply(ctx, sym, dtype=_cell_dtype(cells))[:, None, :]
        start = np.broadcast_to(start, lead).reshape(-1, 1)
    for first in range(0, width, tile):
        todo = np.flatnonzero(live)
        if not len(todo):
            break
        whole = len(todo) == len(ctx)  # then chunk by cheaper slices
        offsets = np.arange(first, min(first + tile, width))
        if start is None:
            hot = (table[offsets].T[:, None, :] == np.arange(sym)[:, None])
            hot = hot.reshape(n, -1).astype(np.float32)
        for chunk in range(0, len(todo), step):
            blocks = slice(chunk, chunk + step) if whole \
                else todo[chunk:chunk + step]
            if start is None:
                onehot = (ctx[blocks, None, :] == symbols).astype(
                    np.float32).reshape(-1, n)
                out = buf[:len(onehot) * hot.shape[1]].reshape(
                    len(onehot), -1)
                counts = np.matmul(onehot, hot, out=out).reshape(
                    -1, cells, len(offsets))
            else:
                codes = base[blocks] + table[start[blocks] + offsets]
                if decoder == "ml":
                    scores = ll.ravel()[codes].sum(axis=-1)
                    top = scores.max(axis=-1)
                    better = top > best[blocks]
                    best[blocks] = np.where(better, top, best[blocks])
                    row[blocks] = np.where(better, first + scores.argmax(
                        axis=-1), row[blocks])
                    continue
                cand = codes.size // n
                ids = codes.reshape(cand, n).astype(np.intp)
                ids += cells * np.arange(cand)[:, None]
                counts = np.bincount(ids.ravel(), minlength=cand * cells)
                counts = counts.reshape(-1, len(offsets), cells).transpose(
                    0, 2, 1)
            ok = counts >= lo
            ok &= counts <= hi
            ok = np.logical_and.reduce(ok, axis=1)
            hit = found[blocks] = ok.any(axis=-1)
            live[blocks] = ~hit
            row[blocks] = np.where(hit, first + ok.argmax(axis=-1), 0)
    return row.reshape(lead), (found | (decoder == "ml")).reshape(lead)


def _group_rows(words, base):
    """(first, inverse) of a (W, n) symbol array: the lowest index holding
    each distinct row, increasing, and for every row the position in
    `first` of its word, so words[first][inverse] equals words.

    Rows are keyed as base-`base` integers built column by column. Before
    a column could overflow int64, and at the end if the keys span more
    than W values, they are replaced by their dense ranks (np.unique, a
    sort), which are below W. A table over the key span then takes each
    key's lowest row with np.minimum.at, without a sort. The demo code's
    176,334 binary rows of n = 12 span 4,096 keys and are never ranked; a
    wide alphabet or a batch of fewer than base^n rows is.
    """
    rows = words.shape[0]
    keys = np.zeros(rows, dtype=np.int64)
    span = 1
    for col in words.T:
        if span * base > np.iinfo(np.int64).max:
            ranked, keys = np.unique(keys, return_inverse=True)
            span = ranked.size
        keys *= base
        np.add(keys, col, out=keys, casting="unsafe")  # symbols < base
        span *= base
    if span > rows:
        ranked, keys = np.unique(keys, return_inverse=True)
        span = ranked.size
    lowest = np.full(span, rows)
    np.minimum.at(lowest, keys, np.arange(rows))
    lowest = lowest[keys]  # the lowest row holding each row's word
    new = lowest == np.arange(rows)
    return np.flatnonzero(new), (np.cumsum(new) - 1)[lowest]


def _distinct_rows(codebook, base):
    """The distinct rows of a (W, n) symbol codebook and the lowest row
    index holding each, both ordered by that index (_group_rows)."""
    first, _ = _group_rows(codebook, base)
    return codebook[first], first


def _draw_u_head(rng, p_u, rows, n, w_nu):
    """(head, words, first_rows) of the (rows, n) U codebook that
    _draw_symbols(rng, p_u, (rows, n)) draws: its leading rows, up to the
    end of the w_nu-row bin holding the last distinct word's first row,
    and the distinct words and the lowest row of each, as _distinct_rows
    gives them.

    The rows are drawn chunk by chunk, CHUNK_ELEMENTS symbols at a time,
    which is the same stream in the same order, and each chunk's rows are
    keyed column by column into a table of the |U|^n keys. Once every key
    has a first row, keying stops, and the draw stops at that bin's end.
    When not every word appears, the head is the whole codebook. When
    |U|^n exceeds the rows, not every word can appear: the codebook is
    drawn whole and grouped by _distinct_rows, which ranks wide keys.
    """
    base = len(p_u)
    span = base ** n
    if span > rows:
        codebook = _draw_symbols(rng, p_u, (rows, n))
        return (codebook,) + _distinct_rows(codebook, base)
    step = max(1, min(rows, CHUNK_ELEMENTS // n))
    first = np.full(span, rows)  # lowest row of each key; rows: none yet
    chunks, firsts = [], []
    drawn, seen, end = 0, 0, rows
    while drawn < end:
        block = _draw_symbols(rng, p_u, (min(step, rows - drawn), n))
        chunks.append(block)
        if seen < span:
            # keys < span <= rows <= MAX_U_CODEWORDS fit an int32
            keys = np.zeros(len(block), dtype=np.int32)
            for col in block.T:
                keys *= base
                keys += col
            if seen:  # past the first chunk, the rows of unseen words
                at = np.flatnonzero(first[keys] == rows)
                keys = keys[at]
                at += drawn
            else:
                at = np.arange(drawn, drawn + len(block))
            np.minimum.at(first, keys, at)
            new = at[first[keys] == at]
            firsts.append(new)
            seen += len(new)
            if seen == span:
                end = (int(new[-1]) // w_nu + 1) * w_nu
        drawn += len(block)
    head = np.concatenate(chunks)[:end]
    first_rows = np.concatenate(firsts)
    return head, head[first_rows], first_rows


def _conditional(num, den, fallback):
    """num / den where den > 0 and fallback elsewhere; den broadcasts
    against num."""
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), fallback)


def _log_table(p):
    return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), LOG_ZERO)


@dataclass(frozen=True)
class ReconCode:
    """Fixed random code for one experiment.

    The U codebook (row r = pair (omega, nu) with r = omega * w_nu + nu,
    so row order is the lexicographic pair order) is drawn from stream
    (seed, 0) in chunks, the bytes of Generator.choice. generate keeps
    only its head (_draw_u_head): the whole bins up to the one holding the
    last distinct word's first row, every row that a run reads. Next to it
    sit the distinct words and the lowest row of each, which the encoder
    scans for every distinct source block (_pick's shared case): at most
    min(W, |U|^n) words instead of all W rows. u_codebook, all W rows, is drawn on its
    first read and kept; u_rows gives the head whenever it holds the bins
    asked for. Every typicality test of the U layer uses the slack eps,
    the V layer's uses eps2 = 2 eps.
    V codebooks are per-(omega, nu) and are regenerated on demand from
    their own stream key, which keeps them fixed across trials without
    materializing all of them; a reconcile call draws each bin it needs
    once.
    """

    n: int
    seed: int
    eps: float
    rates: Rates
    w_u: int
    w_nu: int
    w_k: int
    w_l: int
    tc_rows: np.ndarray
    v_given_yu: np.ndarray          # (ny, nu, nv); nv = 1 means no V layer
    p_u: np.ndarray                 # (nu,) pmf of the U codebook's symbols
    u_head: np.ndarray              # (H, n) leading rows of u_codebook
    u_words: np.ndarray             # (D, n) distinct rows of u_codebook
    u_first_rows: np.ndarray        # (D,) lowest row of each, increasing
    pmf_xu: np.ndarray              # flat typicality references
    pmf_yu: np.ndarray
    pmf_uyv: np.ndarray
    pmf_xuv: np.ndarray
    ll_y_given_u: np.ndarray        # (ny, nu) nat-log ML tables
    ll_v_given_uy: np.ndarray       # (nu, ny, nv)
    ll_v_given_xu: np.ndarray       # (nx, nu, nv)
    p_v_cum_by_u: np.ndarray        # (nu, nv) cumulative p_{V|U}

    @property
    def nu_size(self):
        return self.tc_rows.shape[1]

    @property
    def nv_size(self):
        return self.v_given_yu.shape[2]

    @property
    def eps2(self):
        return 2.0 * self.eps

    @cached_property
    def u_codebook(self):
        """(w_u * w_nu, n) symbols of U: the head when it holds every row,
        else the whole draw, made on the first read."""
        rows = self.w_u * self.w_nu
        if len(self.u_head) == rows:
            return self.u_head
        return _draw_symbols(_stream(self.seed, 0), self.p_u, (rows, self.n))

    def u_rows(self, omega_idx):
        """Rows of the U codebook holding the bins omega_idx: the head
        when it reaches their end, else the whole codebook."""
        if (int(np.max(omega_idx)) + 1) * self.w_nu <= len(self.u_head):
            return self.u_head
        return self.u_codebook

    @classmethod
    def generate(cls, j, tc_u, n, epsilon, seed, v_given_yu=None,
                 rates=None):
        n = _check_block_length(n)
        _check_epsilon(epsilon)
        seed = check_int(seed, "seed")
        nx, ny, _ = j.dims
        check_stochastic(tc_u.rows, "test channel", axis=1,
                         shape=(nx, "|U|"))
        nu = tc_u.u_size
        if v_given_yu is None:
            v_given_yu = np.ones((ny, nu, 1))
        else:
            v_given_yu = check_stochastic(v_given_yu, "v channel", axis=2,
                                          shape=(ny, nu, "|V|"))
        nv = v_given_yu.shape[2]
        _check_alphabets("XYZUV", j.dims + (nu, nv))
        if rates is None:
            v_arg = None if nv == 1 else v_given_yu
            rates = design_rates(j, tc_u, v_arg, epsilon)

        w_u, w_nu = _size(rates.r_u, n), _size(rates.r_u_prime, n)
        w_k, w_l = _size(rates.r_v, n), _size(rates.r_v_prime, n)
        if w_u * w_nu > MAX_U_CODEWORDS:
            raise InfeasibleError(
                f"U codebook of {w_u} x {w_nu} codewords exceeds the "
                f"codebook budget 2^22; lower n or the rates")
        if w_k * w_l > MAX_V_CODEWORDS:
            raise InfeasibleError(
                f"V codebook of {w_k} x {w_l} codewords per bin exceeds "
                "2^16; lower n or the rates")

        p_x = j.marginal((0,))
        p_xy = j.marginal((0, 1))
        p_xu = p_x[:, None] * tc_u.rows
        p_u = p_xu.sum(axis=0)
        p_yu = np.einsum("ab,au->bu", p_xy, tc_u.rows)
        p_uyv = p_yu.T[:, :, None] * v_given_yu.transpose(1, 0, 2)
        p_xuv = np.einsum("ab,au,buv->auv", p_xy, tc_u.rows, v_given_yu)

        cond_y_u = _conditional(p_yu, p_u, 0.0)
        p_v_u = p_uyv.sum(axis=1)
        p_v_by_u = _conditional(p_v_u, p_v_u.sum(axis=1, keepdims=True),
                                1.0 / nv)
        cond_v_uy = _conditional(
            p_uyv, p_uyv.sum(axis=2, keepdims=True), 1.0 / nv)
        cond_v_xu = _conditional(
            p_xuv, p_xuv.sum(axis=2, keepdims=True), 1.0 / nv)

        u_head, u_words, u_first_rows = _draw_u_head(
            _stream(seed, 0), p_u, w_u * w_nu, n, w_nu)

        return cls(
            n=n, seed=seed, eps=epsilon, rates=rates, w_u=w_u,
            w_nu=w_nu, w_k=w_k, w_l=w_l, tc_rows=tc_u.rows,
            v_given_yu=v_given_yu, p_u=p_u, u_head=u_head, u_words=u_words,
            u_first_rows=u_first_rows,
            pmf_xu=p_xu.ravel(), pmf_yu=p_yu.ravel(),
            pmf_uyv=p_uyv.ravel(), pmf_xuv=p_xuv.ravel(),
            ll_y_given_u=_log_table(cond_y_u),
            ll_v_given_uy=_log_table(cond_v_uy),
            ll_v_given_xu=_log_table(cond_v_xu),
            p_v_cum_by_u=np.cumsum(p_v_by_u, axis=1),
        )

    def v_codebook(self, omega_idx, nu_idx):
        """(w_k * w_l, n) V codewords of bin (omega, nu), symbols drawn
        conditionally on that bin's U codeword. Without a V layer
        (nv = 1) every symbol is 0."""
        if self.nv_size == 1:
            return np.zeros((self.w_k * self.w_l, self.n), dtype=np.uint8)
        u_row = self.u_rows(omega_idx)[omega_idx * self.w_nu + nu_idx]
        # column i counts its uniforms against the cuts of p_{V|u_i}
        return _count_cuts(_stream(self.seed, 2, omega_idx, nu_idx),
                           self.p_v_cum_by_u[u_row, :-1].T,
                           (self.w_k * self.w_l, self.n))


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of every block of a reconcile call. Each field carries the
    batch's leading axes; the four sequences add the last axis n."""

    s_u: np.ndarray          # Alice's U-layer sequence (the key material)
    s_v: np.ndarray          # Alice's recovered V layer
    shat_u: np.ndarray       # Bob's U-layer estimate
    shat_v: np.ndarray       # Bob's own V layer
    a_msg: np.ndarray        # bin index omega, 1-based
    b_msg: np.ndarray        # V bin index k, 1-based
    alice_found: np.ndarray
    bob_found: np.ndarray

    @property
    def agree(self):
        """One bool per block: Bob's U and V layers equal Alice's."""
        return np.all((self.s_u == self.shat_u) & (self.s_v == self.shat_v),
                      axis=-1)


def _encode_alice(x, code):
    """(omega, nu, found) per block: the lowest codebook row whose word is
    jointly typical with x; a miss picks word 0, the word of row 0. The
    pick depends on x alone, so each distinct x is scanned once."""
    lead, nx = x.shape[:-1], code.tc_rows.shape[0]
    x = x.reshape(-1, code.n)
    first, inverse = _group_rows(x, nx)
    word, found = _pick(x[first], nx, code.u_words, None, len(code.u_words),
                        code.pmf_xu, None, code.eps, "typicality")
    flat = code.u_first_rows[word[inverse]].reshape(lead)
    return flat // code.w_nu, flat % code.w_nu, found[inverse].reshape(lead)


def _decode_u(y, omega_idx, code, decoder):
    """Bob's (nu, found) per block, within its public bin omega."""
    return _pick(y, code.v_given_yu.shape[0], code.u_rows(omega_idx),
                 omega_idx * code.w_nu, code.w_nu, code.pmf_yu,
                 code.ll_y_given_u, code.eps, decoder)


def _v_books(code, omega_idx, nu_idx):
    """(books, first): the V codebooks of the distinct (omega, nu) bins
    among the blocks, each drawn once and stacked into one table, and the
    table row at which each block's codebook starts."""
    first = np.zeros(np.shape(omega_idx), dtype=np.intp)
    bins, which = np.unique(omega_idx * code.w_nu + nu_idx,
                            return_inverse=True)
    books = np.concatenate([code.v_codebook(*divmod(int(b), code.w_nu))
                            for b in bins])
    first[...] = which.reshape(first.shape) * (code.w_k * code.w_l)
    return books, first


def _cover_v(y, shat_u, books, first, code, decoder):
    """Bob's (k, v) per block: the V codeword of his bin's codebook (table
    rows from `first`) that covers (u, y)."""
    ny = code.v_given_yu.shape[0]
    ctx = np.multiply(shat_u, ny, dtype=_cell_dtype(code.pmf_uyv.size))
    ctx += y
    flat, _ = _pick(ctx, code.nu_size * ny, books, first,
                    code.w_k * code.w_l, code.pmf_uyv, code.ll_v_given_uy,
                    code.eps2, decoder)
    return flat // code.w_l, books[first + flat]


def _no_v(rows):
    """(k, v) per block without a V layer: every V codeword of every bin
    is all-zero, so the cover and the recovery pick row 0 under either
    decoder."""
    return (np.zeros(rows.shape[:-1], dtype=np.intp),
            np.zeros(rows.shape, dtype=np.uint8))


def _decode_bob(y, omega_idx, code, decoder):
    """Bob's side given the public bin indices: pick nu within each bin,
    then cover (u, y) with a V codeword. Also the eavesdropper's procedure
    when run on z. Returns (shat_u, nu, k, shat_v, found) per block."""
    nu_idx, found = _decode_u(y, omega_idx, code, decoder)
    shat_u = code.u_rows(omega_idx)[omega_idx * code.w_nu + nu_idx]
    if code.nv_size == 1:
        return (shat_u, nu_idx) + _no_v(shat_u) + (found,)
    books, first = _v_books(code, omega_idx, nu_idx)
    k_idx, shat_v = _cover_v(y, shat_u, books, first, code, decoder)
    return shat_u, nu_idx, k_idx, shat_v, found


def _recover_alice(x, s_u, books, first, k_idx, code, decoder):
    """Alice's V estimate per block, picked among the w_l codewords of
    Bob's k group in her bin's codebook (table rows from `first`)."""
    start = first + k_idx * code.w_l
    ctx = np.multiply(x, code.nu_size, dtype=_cell_dtype(code.pmf_xuv.size))
    ctx += s_u
    l_idx, _ = _pick(ctx, code.pmf_xu.size, books, start, code.w_l,
                     code.pmf_xuv, code.ll_v_given_xu, code.eps2, decoder)
    return books[start + l_idx]


def reconcile(x, y, code, decoder="typicality"):
    """The two-message protocol on a batch of blocks; see the module
    docstring.

    x and y are (..., n) integer arrays of equal shape that hold symbols of
    X and Y; the leading axes are batch axes and every field of the result
    carries them (one length-n block gives 0-d fields). Per block, Alice
    encodes x into the lowest typical (omega, nu) pair, falling back to
    (1, 1), and publishes omega. Bob picks the lowest admissible nu in the
    bin, covers (u, y) with a V codeword, and publishes its k index. Alice
    then recovers her own V estimate inside (her nu, his k). Each distinct
    bin's V codebook is drawn once per call, for Bob and Alice together;
    without a V layer none is, k is 0 and both V layers are all-zero.
    """
    _check_decoder(decoder)
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim < 1 or x.shape != y.shape or x.shape[-1] != code.n:
        raise ParameterError(
            f"x and y must be equal-shaped (..., {code.n}) arrays")
    if x.size == 0:
        raise ParameterError("x and y hold no block")
    for name, seq, size in (("x", x, code.tc_rows.shape[0]),
                            ("y", y, code.v_given_yu.shape[0])):
        if not np.issubdtype(seq.dtype, np.integer) or seq.min() < 0 \
                or seq.max() >= size:
            raise ParameterError(
                f"{name} must hold integer symbols in [0, {size})")
    omega_idx, nu_idx, alice_found = _encode_alice(x, code)
    u_rows = code.u_rows(omega_idx)  # the head: Alice picks first rows
    s_u = u_rows[omega_idx * code.w_nu + nu_idx]
    bob_nu, bob_found = _decode_u(y, omega_idx, code, decoder)
    shat_u = u_rows[omega_idx * code.w_nu + bob_nu]
    if code.nv_size == 1:
        k_idx, shat_v = _no_v(shat_u)
        s_v = np.zeros_like(shat_v)
    else:
        # one table for both parties' bins; Alice recovers inside hers
        books, first = _v_books(code, np.stack([omega_idx, omega_idx]),
                                np.stack([nu_idx, bob_nu]))
        k_idx, shat_v = _cover_v(y, shat_u, books, first[1], code, decoder)
        s_v = _recover_alice(x, s_u, books, first[0], k_idx, code, decoder)
    return ReconcileResult(
        s_u=s_u, s_v=s_v, shat_u=shat_u, shat_v=shat_v,
        a_msg=omega_idx + 1, b_msg=k_idx + 1,
        alice_found=alice_found, bob_found=bob_found)


def _source_symbols(j, draws):
    """(x, y, z) uint8 symbols, each shaped like the uniforms `draws`: a
    uniform counts against the joint's cumulative masses in flat order."""
    _check_alphabets("XYZ", j.dims)
    cum = np.cumsum(j.masses.ravel())
    idx = _count_cuts(draws, cum[:-1], draws.shape)
    return tuple(a.astype(np.uint8) for a in np.unravel_index(idx, j.dims))


def sample_source(j, n, seed):
    """n i.i.d. draws from the joint; returns (x^n, y^n, z^n)."""
    n = check_int(n, "sample count", 1)
    if not isinstance(seed, np.random.Generator):
        seed = _stream(check_int(seed, "seed"))
    return _source_symbols(j, seed.random(n))


def _pack_bits(bits):
    """uint64 value of each MSB-first bit row along the last axis."""
    bits = np.asarray(bits, dtype=np.uint64)
    shifts = np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.uint64)
    return np.bitwise_or.reduce(bits << shifts, axis=-1)


def _unpack_bits(values, width):
    """The `width` MSB-first low bits of each value, on a new last axis."""
    shifts = np.arange(width - 1, -1, -1)
    values = np.asarray(values)[..., None]
    return ((values >> shifts.astype(values.dtype)) & 1).astype(np.uint8)


def privacy_amplify(s_bits, hash_seed, k):
    """First k bits of the GF(2^N) product of s with the public seed.

    The last axis of each input holds N bits, MSB first; N must have a
    field table entry (8..64). Leading axes are batch axes and broadcast
    against each other, so one call hashes many inputs; the result has
    shape (..., k).
    """
    s_bits = np.atleast_1d(s_bits)
    hash_seed = np.atleast_1d(hash_seed)
    n_bits = s_bits.shape[-1]
    if hash_seed.shape[-1] != n_bits:
        raise ParameterError(
            f"hash seed has {hash_seed.shape[-1]} bits, input has {n_bits}")
    if n_bits not in POLY_TAPS:
        raise ParameterError(
            f"input length must be in [8, 64] bits, got {n_bits}")
    k = check_int(k, "key length", 1, n_bits)
    for name, arr in (("s", s_bits), ("hash seed", hash_seed)):
        if np.any((arr != 0) & (arr != 1)):
            raise ParameterError(f"{name} must contain only bits")
    prod = gf_mul(_pack_bits(s_bits), _pack_bits(hash_seed), n_bits)
    return _unpack_bits(prod, n_bits)[..., :k]


@dataclass(frozen=True)
class ProtocolParams:
    """One experiment's knobs. rates = None means the designed defaults."""

    n: int
    m: int
    k: int
    epsilon: float
    trials: int
    seed: int
    decoder: str = "typicality"
    rates: Rates = None

    def __post_init__(self):
        n = _check_block_length(self.n)
        m = check_int(self.m, "block count", 1)
        checked = dict(n=n, m=m, k=check_int(self.k, "key length", 1, n * m),
                       trials=check_int(self.trials, "trials", 1),
                       seed=check_int(self.seed, "seed"))
        for name, value in checked.items():  # numpy ints stored as ints
            object.__setattr__(self, name, value)
        _check_epsilon(self.epsilon)
        _check_decoder(self.decoder)


@dataclass(frozen=True)
class RunMetrics:
    """Empirical reliability/secrecy metrics of one experiment."""

    p_e: float            # fraction of trials with key disagreement
    leakage_est: float    # plug-in MI of key vs eavesdropper view, bits
    leakage_bias: float   # shuffle-null mean of the same estimator
    leakage_null_sd: float
    uniformity_est: float  # k - plug-in key entropy, bits
    trials: int
    n_bits: int           # hash input length N
    alice_encode_rate: float
    bob_decode_rate: float
    eve_match_rate: float  # fraction of trials where Eve's key guess hit


def _codes(items):
    """Integer code of each hashable item, in order of first appearance,
    and the number of distinct items."""
    index = {}
    return (np.array([index.setdefault(item, len(index)) for item in items]),
            len(index))


def leakage_estimate(keys, views, rng):
    """Plug-in MI between keys and views plus its shuffle-null statistics.

    Returns (mi, null_mean, null_sd). The null permutes the key column
    against the views SHUFFLE_ROUNDS times, which measures the estimator's
    finite-sample bias on exactly this view layout; mi landing inside the
    null band means no detectable leakage.

    The observed pairing and every shuffle are one array pass. Each is
    the sum, from 0.0 and in order of each (key, view) pair's first
    appearance, of (c/T) log2(c T / (left right)) over its distinct pairs
    of count c, with left and right the key's and the view's counts: a
    cumsum along the row, since np.sum adds pairwise. log2 is math.log2,
    taken once per distinct ratio; np.log2 can differ in the last bit.
    """
    trials = len(keys)
    if trials != len(views) or trials == 0:
        raise ParameterError("keys and views must be equal-length and "
                             "non-empty")
    key_code, n_keys = _codes(keys)
    view_code, n_views = _codes(views)
    # row r is what the r-th of SHUFFLE_ROUNDS rng.permutation(trials)
    # calls would return
    shuffles = rng.permuted(
        np.tile(np.arange(trials), (SHUFFLE_ROUNDS, 1)), axis=1)
    # row 0 pairs the keys as given, row r > 0 by shuffle r; pair ids are
    # distinct across rows
    pairs = np.vstack([key_code, key_code[shuffles]])
    pairs += np.arange(len(pairs))[:, None] * n_keys
    pairs *= n_views
    pairs += view_code
    first, count = np.unique(pairs, return_index=True,
                             return_counts=True)[1:]
    pair = pairs.ravel()[first]
    margins = np.bincount(key_code)[pair // n_views % n_keys] \
        * np.bincount(view_code)[pair % n_views]
    ratio, to_ratio = np.unique(count * trials / margins, return_inverse=True)
    log2 = np.array([math.log2(r) for r in ratio.tolist()])
    # each pair's term sits where the pair first appears in its row; the
    # zeros between leave the sequential sum unchanged
    terms = np.zeros(pairs.shape)
    terms.ravel()[first] = (count / trials) * log2[to_ratio]
    sums = terms.cumsum(axis=1)[:, -1]
    nulls = sums[1:]
    return float(sums[0]), float(nulls.mean()), float(nulls.std())


def _trial_draws(j, params, n_bits):
    """(x, y, z, hash_seeds) of every trial: x, y and z are (trials, m, n)
    symbols, hash_seeds (trials, n_bits) bits. Trial t draws its n m
    source uniforms from _stream(seed, 1, t) and its hash seed from
    _stream(seed, 3, t), one reused Philox set to each stream's key with
    counter 0.

    A hash seed is what _stream(seed, 3, t).integers(0, 2, n_bits) draws:
    numpy's Lemire draw for a range of 2 takes the top bit of each 32-bit
    half of the raw words, low half first. So each seed is
    ceil(n_bits / 2) raw words, turned into bits in one array pass.
    """
    trials, shape = params.trials, (params.trials, params.m, params.n)
    bit_gen = np.random.Philox(key=0)
    state = bit_gen.state  # counter 0, no buffered output
    # the state setter reads these element by element, and Python ints
    # read faster than numpy scalars
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    rng = np.random.Generator(bit_gen)
    draws = np.empty((trials, params.m * params.n))
    words = np.empty((trials, (n_bits + 1) // 2), dtype=np.uint64)
    for t, (source_key, seed_key) in enumerate(
            zip(*_philox_keys(params.seed, (1, 3), trials).tolist())):
        state["state"]["key"] = source_key
        bit_gen.state = state
        rng.random(out=draws[t])
        state["state"]["key"] = seed_key
        bit_gen.state = state
        words[t] = bit_gen.random_raw(words.shape[1])
    halves = words[..., None] >> np.array([31, 63], dtype=np.uint64)
    hash_seeds = (halves & np.uint64(1)).astype(np.uint8).reshape(
        trials, -1)[:, :n_bits]
    x, y, z = (a.reshape(shape) for a in _source_symbols(j, draws))
    return x, y, z, hash_seeds


def run_experiment(j, tc_u, params, v_given_yu=None):
    """End-to-end experiment; deterministic in (params.seed, params).

    The eavesdropper decodes by running Bob's procedure on z, so Z must
    share Y's alphabet.
    """
    ny, nz = j.dims[1], j.dims[2]
    if nz != ny:
        raise ParameterError(
            f"eavesdropper alphabet |Z| = {nz} differs from |Y| = {ny}; "
            "her decoder runs Bob's procedure on z")
    code = ReconCode.generate(
        j, tc_u, n=params.n, epsilon=params.epsilon, seed=params.seed,
        v_given_yu=v_given_yu, rates=params.rates)
    bits_u = _bits_per_symbol(code.nu_size)
    bits_v = _bits_per_symbol(code.nv_size)
    n_bits = params.m * params.n * (bits_u + bits_v)
    if n_bits not in POLY_TAPS:
        raise InfeasibleError(
            f"hash input of {n_bits} bits has no field table entry; "
            "choose n, m so that m*n*(symbol bits) lands in [8, 64]")
    if params.k > n_bits:
        raise ParameterError(
            f"key length {params.k} exceeds the {n_bits}-bit hash input")

    trials, m, n = params.trials, params.m, params.n
    x, y, z, hash_seeds = _trial_draws(j, params, n_bits)
    res = reconcile(x, y, code, params.decoder)
    e_u, _, _, e_v, _ = _decode_bob(z, res.a_msg - 1, code, params.decoder)
    # symbols by trial, party (Alice, Bob, Eve), block, layer (U, V)
    syms = np.stack([np.stack(layers, axis=2) for layers in (
        (res.s_u, res.s_v), (res.shat_u, res.shat_v), (e_u, e_v))], axis=1)
    z_types = [tuple(row) for row in np.stack(
        [(z == c).sum(axis=(1, 2)) for c in range(nz)], axis=1).tolist()]

    def layer_bits(layer, width):
        return _unpack_bits(syms[:, :, :, layer], width).reshape(
            trials, 3, m, n * width)

    # each block contributes its U bits, then its V bits
    s_bits = np.concatenate([layer_bits(0, bits_u), layer_bits(1, bits_v)],
                            axis=-1).reshape(trials, 3, n_bits)
    keys = _pack_bits(privacy_amplify(
        s_bits, hash_seeds[:, None, :], params.k)).tolist()
    keys_seen = [key for key, _, _ in keys]
    views = [(eve, z_type) for (_, _, eve), z_type in zip(keys, z_types)]
    errors = sum(key != bob for key, bob, _ in keys)
    eve_hits = sum(key == eve for key, _, eve in keys)

    h_key = 0.0
    for c in Counter(keys_seen).values():
        h_key -= (c / trials) * math.log2(c / trials)
    leakage, null_mean, null_sd = leakage_estimate(
        keys_seen, views, _stream(params.seed, 4))
    blocks = trials * m
    return RunMetrics(
        p_e=errors / trials,
        leakage_est=leakage,
        leakage_bias=null_mean,
        leakage_null_sd=null_sd,
        uniformity_est=params.k - h_key,
        trials=trials,
        n_bits=n_bits,
        alice_encode_rate=int(res.alice_found.sum()) / blocks,
        bob_decode_rate=int(res.bob_found.sum()) / blocks,
        eve_match_rate=eve_hits / trials,
    )
