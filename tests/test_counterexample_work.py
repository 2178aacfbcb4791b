"""The counterexample evaluates each optimum once and validates its rate once.

Every alpha1 whose trace lands on the constraint curve costs exactly one
``counterexample_fgh`` call: the report reuses the h of both optima rather
than evaluating them again. Non-finite and non-positive rates go through
``check_rate``, and the CLI maps them to exit code 2.
"""

import math

import pytest

from seqkey import binary
from seqkey.binary import AsymBinarySource, counterexample_solve
from seqkey.cli import main
from seqkey.errors import ParameterError

REFERENCE = AsymBinarySource(p=0.23, beta1=0.01, beta2=0.03,
                             gamma1=0.03, gamma2=0.01)


def test_one_evaluation_per_point_on_the_curve(monkeypatch):
    trace, fgh = binary._trace_alpha2, binary.counterexample_fgh
    landed, evaluated = [], []

    def counting_trace(src, a1, r1):
        a2 = trace(src, a1, r1)
        landed.append(a2 is not None)
        return a2

    def counting_fgh(src, pair):
        evaluated.append(pair)
        return fgh(src, pair)

    monkeypatch.setattr(binary, "_trace_alpha2", counting_trace)
    monkeypatch.setattr(binary, "counterexample_fgh", counting_fgh)
    rep = counterexample_solve(REFERENCE, REFERENCE.h_x_given_y() / 3.0)
    assert len(evaluated) == sum(landed) == 86
    assert rep.wsk_pair in evaluated and rep.rec_pair in evaluated


@pytest.mark.parametrize("r1, message", [
    (math.inf, "rate must be finite, got inf"),
    (math.nan, "rate must be positive, got nan"),
    (-1.0, "rate must be positive, got -1.0"),
])
def test_rate_goes_through_check_rate(r1, message, capsys):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        counterexample_solve(REFERENCE, r1)
    assert main(["counterexample", f"--r1={r1!r}"]) == 2
    assert capsys.readouterr().err.strip() == f"seqkey: {message}"
