"""The counterexample's constraint trace against its unhoisted reference.

``_trace_alpha2`` takes the entropies that do not depend on alpha2 once
per trace and evaluates only h - f at each bisection step. It must return
the float that the trace through ``counterexample_fgh`` returns, or the
same error, on every source, rate and alpha1.
"""

import math

import numpy as np
import pytest

from seqkey.binary import (
    AlphaPair,
    AsymBinarySource,
    _trace_alpha2,
    mixture_weight,
)
from seqkey.errors import InfeasibleError, ParameterError
from seqkey.measures import binary_entropy, binary_entropy_unchecked

from counterexample_oracle import oracle_trace_alpha2

REFERENCE = AsymBinarySource(p=0.23, beta1=0.01, beta2=0.03,
                             gamma1=0.03, gamma2=0.01)


def random_sources(count, seed=0):
    rng = np.random.default_rng(seed)
    return [AsymBinarySource(*rng.uniform(0.01, 0.99, size=5).tolist())
            for _ in range(count)]


def outcome(trace, src, a1, r1):
    try:
        return trace(src, a1, r1)
    except Exception as exc:  # the same error counts as the same outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("src", [REFERENCE, *random_sources(20)],
                         ids=["reference", *map(str, range(20))])
def test_trace_equals_reference_bit_for_bit(src):
    h = src.h_x_given_y()
    alphas = np.linspace(0.0, src.p, 60, endpoint=False).tolist()
    for r1 in (h / 10.0, h / 3.0, 0.7 * h, 0.99 * h):
        for a1 in alphas:
            got = outcome(_trace_alpha2, src, a1, r1)
            want = outcome(oracle_trace_alpha2, src, a1, r1)
            if isinstance(want, float):
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want, (src, r1, a1)


def test_trace_finds_points_on_and_off_the_curve():
    # the table above must exercise both branches of the trace
    h = REFERENCE.h_x_given_y()
    alphas = np.linspace(0.0, REFERENCE.p, 60, endpoint=False).tolist()
    found = [_trace_alpha2(REFERENCE, a1, 0.99 * h) for a1 in alphas]
    assert any(a2 is None for a2 in found)
    assert any(a2 is not None for a2 in found)


@pytest.mark.parametrize("p", [0.0, 1e-300, 1e-200, 1e-17, 0.1, 0.23, 0.5,
                               0.7, 1.0 - 1e-16, 1.0])
def test_unchecked_entropy_is_binary_entropy(p):
    assert binary_entropy_unchecked(p) == binary_entropy(p)
    assert binary_entropy_unchecked(p, 1.0) == binary_entropy(p, "nats")


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_binary_entropy_checks_its_units_at_every_p(p):
    with pytest.raises(ParameterError, match="unknown units"):
        binary_entropy(p, "bans")


def test_mixture_weight_keeps_its_feasibility_rule():
    with pytest.raises(InfeasibleError, match="undefined"):
        mixture_weight(REFERENCE, AlphaPair(0.4, 0.6))
    with pytest.raises(InfeasibleError, match=r"outside \[0, 1\]"):
        mixture_weight(REFERENCE, AlphaPair(0.5, 0.1))
    assert mixture_weight(REFERENCE, AlphaPair(0.0, 0.0)) == 1.0 - REFERENCE.p
