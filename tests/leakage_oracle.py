"""Reference for the leakage tests: the dict-loop plug-in estimator.

This is how ``seqkey.protocol.leakage_estimate`` computed its numbers
before the observed pairing and the shuffle null became one array pass:
one pass over Python dicts per pairing, each summing its terms in the
dicts' insertion order. The functions are copied from that version, so a
test can ask the array estimator for the same floats, bit for bit.
"""

import math

import numpy as np

from seqkey.protocol import SHUFFLE_ROUNDS


def plugin_mi_bits(pairs, trials):
    joint = {}
    left = {}
    right = {}
    for a, b in pairs:
        joint[(a, b)] = joint.get((a, b), 0) + 1
        left[a] = left.get(a, 0) + 1
        right[b] = right.get(b, 0) + 1
    mi = 0.0
    for (a, b), c in joint.items():
        mi += (c / trials) * math.log2(
            c * trials / (left[a] * right[b]))
    return mi


def leakage_estimate(keys, views, rng):
    """(mi, null_mean, null_sd) from SHUFFLE_ROUNDS key shuffles."""
    trials = len(keys)
    mi = plugin_mi_bits(list(zip(keys, views)), trials)
    nulls = []
    for _ in range(SHUFFLE_ROUNDS):
        perm = rng.permutation(trials)
        nulls.append(plugin_mi_bits(
            [(keys[p], views[i]) for i, p in enumerate(perm)], trials))
    nulls = np.asarray(nulls)
    return mi, float(nulls.mean()), float(nulls.std())
