"""Reference for the reconciliation tests: the block-by-block protocol.

This is how ``seqkey.protocol`` reconciled before every stage took leading
batch axes: one block per call. The functions are copied from that version
as they were, less its second message (the V layer, since deleted), so a
test can ask the batched library for the same indices and words, block for
block; the per-cell float comparison of typicality sits in its own
function, so a test can compare it with the integer count windows. A
code holds only the head of its U codebook; the oracle reads all W rows
from u_codebook, drawn once per code.
"""

from functools import lru_cache

import numpy as np

from seqkey.errors import ParameterError
from seqkey.protocol import (
    _COUNT_FUZZ,
    ReconcileResult,
    _draw_symbols,
    _stream,
)


def u_codebook(code):
    """All w_u * w_nu rows of the code's U codebook, read-only: the draw
    whose leading rows are code.u_head."""
    return _whole_draw(code.seed, code.p_u.tobytes(),
                       code.w_u * code.w_nu, code.n)


@lru_cache(maxsize=4)
def _whole_draw(seed, p_u, rows, n):
    book = _draw_symbols(_stream(seed, 0), np.frombuffer(p_u), (rows, n))
    book.flags.writeable = False
    return book


def in_float_window(cnt, p, eps, n):
    """Whether count cnt of a cell of mass p passes robust typicality,
    |cnt/n - p| <= eps p, as the float comparison of that version made it."""
    if p <= 0.0:
        return cnt == 0
    return (cnt >= n * p * (1.0 - eps) - _COUNT_FUZZ) \
        & (cnt <= n * p * (1.0 + eps) + _COUNT_FUZZ)


def typical_mask(codes, pmf_flat, eps, n):
    """Row mask of robust typicality for one block's (W, n) codes."""
    ok = np.ones(codes.shape[0], dtype=bool)
    for c, p in enumerate(pmf_flat):
        ok &= in_float_window((codes == c).sum(axis=1), p, eps, n)
    return ok


def pick(codes, pmf, ll, eps, n, decoder):
    if decoder == "ml":
        return int(np.argmax(ll.ravel()[codes].sum(axis=1))), True
    mask = typical_mask(codes, pmf, eps, n)
    found = bool(mask.any())
    return (int(np.argmax(mask)) if found else 0), found


def encode_alice(x, code):
    """(omega, nu, found) of the lowest codebook row whose word is jointly
    typical with x, or (0, 0, False) when no word is."""
    nu = code.nu_size
    codes = x.astype(np.int16)[None, :] * nu + code.u_words
    mask = typical_mask(codes, code.pmf_xu, code.eps, code.n)
    if mask.any():
        flat = int(code.u_first_rows[np.argmax(mask)])
        return flat // code.w_nu, flat % code.w_nu, True
    return 0, 0, False


def decode_bob(y, omega_idx, code, decoder):
    """(shat_u, nu_idx, found) for one block; also the eavesdropper's
    procedure when run on z."""
    lo = omega_idx * code.w_nu
    cand = u_codebook(code)[lo:lo + code.w_nu]
    codes = y.astype(np.int16)[None, :] * code.nu_size + cand
    nu_idx, found = pick(codes, code.pmf_yu, code.ll_y_given_u,
                         code.eps, code.n, decoder)
    return cand[nu_idx], nu_idx, found


def reconcile(x, y, code, decoder="typicality"):
    """One block of the one-message protocol, with scalar result fields."""
    if decoder not in ("typicality", "ml"):
        raise ParameterError(
            f"decoder must be 'typicality' or 'ml', got {decoder!r}")
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != (code.n,) or y.shape != (code.n,):
        raise ParameterError(
            f"x and y must be length-{code.n} sequences")
    omega_idx, nu_idx, alice_found = encode_alice(x, code)
    s_u = u_codebook(code)[omega_idx * code.w_nu + nu_idx]
    shat_u, _, bob_found = decode_bob(y, omega_idx, code, decoder)
    return ReconcileResult(
        s_u=s_u, shat_u=shat_u, a_msg=omega_idx + 1,
        alice_found=alice_found, bob_found=bob_found)
