"""Reconciliation scans only the blocks whose answer is not yet known.

Every stage's scan goes through ``protocol._pick``; these tests wrap it and
count, per stage, the blocks it is handed, the blocks that enter its scan
(all of them for ML, those ``_feasible`` leaves for typicality) and the
candidate rows it reads. Alice's encoder is handed each distinct source
block once; a typicality block whose context type admits no typical joint
type is not scanned; and a code without a V layer runs no V stage.
"""

from itertools import product

import numpy as np
import pytest

from seqkey import protocol
from seqkey.binary import BscCascadeSource
from seqkey.optimizer import TestChannel
from seqkey.protocol import (
    ProtocolParams,
    ReconCode,
    _decode_bob,
    _trial_draws,
    reconcile,
)

SEED = 20260816  # the benchmark's default workload seed
J = BscCascadeSource(0.1, 0.5).joint()


class _CountedTable:
    """A candidate table that counts the rows read from it."""

    def __init__(self, table):
        self.table, self.rows = table, 0

    def __getitem__(self, index):
        got = self.table[index]
        self.rows += got.size // got.shape[-1]
        return got


@pytest.fixture
def scans(monkeypatch):
    """One record per _pick call: the stage's pmf, the blocks handed in,
    the blocks scanned and the candidate rows read."""
    pick, feasible = protocol._pick, protocol._feasible
    calls, live = [], []

    def counted_feasible(ctx, ctx_size, lo, hi):
        ok = feasible(ctx, ctx_size, lo, hi)
        live.append(ok.copy())  # the scan clears blocks as they hit
        return ok

    def counted_pick(ctx, ctx_size, table, start, width, pmf, ll, eps,
                     decoder):
        live.clear()
        rows = _CountedTable(table)
        out = pick(ctx, ctx_size, rows, start, width, pmf, ll, eps, decoder)
        blocks = ctx.reshape(-1, ctx.shape[-1])
        scanned = blocks if decoder == "ml" else blocks[live[0]]
        calls.append(dict(pmf=pmf, blocks=blocks, scanned=scanned,
                          rows=rows.rows))
        return out

    monkeypatch.setattr(protocol, "_feasible", counted_feasible)
    monkeypatch.setattr(protocol, "_pick", counted_pick)
    return calls


def _stage(calls, pmf):
    return [c for c in calls if c["pmf"] is pmf]


def _workload(n, m, k, decoder, trials):
    """The code and draws of a simulate workload at the default seed."""
    params = ProtocolParams(n=n, m=m, k=k, epsilon=0.15, trials=trials,
                            seed=SEED, decoder=decoder)
    code = ReconCode.generate(J, TestChannel.identity(2), n=n,
                              epsilon=0.15, seed=SEED)
    x, y, z, _ = _trial_draws(J, params, n * m)
    return code, x, y, z


def test_encoder_scans_each_distinct_typical_type_once(scans):
    # sim_short_blocks: 1,200 blocks of n = 8 hold all 256 words, and
    # only the 70 of weight 4 have a joint type in the encoder's windows
    code, x, y, _ = _workload(8, 8, 4, "ml", 150)
    reconcile(x, y, code, "ml")
    (enc,) = _stage(scans, code.pmf_xu)
    assert x.reshape(-1, 8).shape[0] == 1200
    assert len(enc["blocks"]) == 256
    assert len({row.tobytes() for row in enc["blocks"]}) == 256
    assert len(enc["scanned"]) == 70
    assert (enc["scanned"].sum(axis=1) == 4).all()
    # ML is untouched: Bob's decode scans every block
    (bob,) = _stage(scans, code.pmf_yu)
    assert len(bob["scanned"]) == 1200


def test_typicality_decoders_scan_no_block_on_the_long_code(scans):
    # sim_long_blocks: the 0.05-mass (y, u) cells admit no count at
    # n = 12, so neither Bob's nor Eve's typicality decode reads a row;
    # 8 of the 39 distinct x (40 blocks) enter the encoder's scan
    code, x, y, z = _workload(12, 4, 2, "typicality", 10)
    res = reconcile(x, y, code)
    _decode_bob(z, res.a_msg - 1, code, "typicality")
    (enc,) = _stage(scans, code.pmf_xu)
    assert len(enc["blocks"]) == 39 and len(enc["scanned"]) == 8
    bob, eve = _stage(scans, code.pmf_yu)
    for dec in (bob, eve):
        assert len(dec["blocks"]) == 40
        assert len(dec["scanned"]) == 0 and dec["rows"] == 0


@pytest.mark.parametrize("decoder", ["typicality", "ml"])
def test_no_v_layer_runs_no_v_stage(scans, decoder, monkeypatch):
    code = ReconCode.generate(J, TestChannel.identity(2), n=8,
                              epsilon=0.15, seed=3)
    assert code.nv_size == 1
    books = []
    v_books = protocol._v_books
    monkeypatch.setattr(protocol, "_v_books",
                        lambda *a: books.append(a) or v_books(*a))
    _, x, y, z = _workload(8, 8, 4, decoder, 20)
    res = reconcile(x, y, code, decoder)
    eve = _decode_bob(z, res.a_msg - 1, code, decoder)
    assert not books
    assert not _stage(scans, code.pmf_uyv) + _stage(scans, code.pmf_xuv)
    assert len(scans) == 3  # the encoder, Bob's and Eve's U decodes
    assert (res.b_msg == 1).all()
    for v in (res.s_v, res.shat_v, eve[3]):
        assert v.shape == x.shape and v.dtype == np.uint8 and not v.any()


def test_v_layer_still_runs_both_v_stages(scans):
    v = np.zeros((2, 2, 2))
    v[0, :, 0] = v[1, :, 1] = 1.0
    code = ReconCode.generate(J, TestChannel.identity(2), n=8, epsilon=0.15,
                              seed=3, v_given_yu=v, rates=protocol.Rates(
                                  r_u=1.0, r_u_prime=0.25, r_v=0.5,
                                  r_v_prime=0.25))
    _, x, y, _ = _workload(8, 8, 4, "ml", 20)
    reconcile(x, y, code, "ml")
    assert len(_stage(scans, code.pmf_uyv)) == 1
    assert len(_stage(scans, code.pmf_xuv)) == 1


def test_repeated_blocks_are_handed_in_once(scans):
    code = ReconCode.generate(J, TestChannel.identity(2), n=4,
                              epsilon=0.15, seed=1)
    words = np.array(list(product(range(2), repeat=4)), dtype=np.uint8)
    x = np.concatenate([words, words[::-1], words[:5]])
    reconcile(x, x, code)
    (enc,) = _stage(scans, code.pmf_xu)
    # in order of first appearance, every word once
    assert np.array_equal(enc["blocks"], words)
