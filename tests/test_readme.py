"""The README's Library example runs and says what it computes.

The python block under "## Library" is run statement by statement, and
each bare expression's value is kept under its source text, so a test can
check the values the example's comments promise.
"""

import ast
import math
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text()
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


@pytest.fixture(scope="module")
def example():
    """(namespace, {expression source: value}) of the Library block."""
    code = _library_block()
    namespace, values = {}, {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(code, stmt.value)] = eval(
                expr, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
    return namespace, values


def test_optimizer_gives_the_closed_form_value(example):
    # "same value from the optimizer": the optimizer's default objective
    # is wsk, 0.27806 bits, against the closed form's c_rec of 0.41785
    _, values = example
    closed = values["c_rec_bsc(src, 0.3)"]
    (optimized,) = [value for source, value in values.items()
                    if source.startswith("optimize_oneway(")]
    assert closed == pytest.approx(0.4178542643638, abs=1e-12)
    assert abs(optimized - closed) <= 1e-9


def test_run_experiment_call_runs(example):
    namespace, values = example
    mets = namespace["mets"]
    assert mets.trials == 500
    shown = values["mets.p_e, mets.leakage_est, mets.uniformity_est"]
    assert shown == (mets.p_e, mets.leakage_est, mets.uniformity_est)
    assert all(math.isfinite(value) for value in shown)
    assert 0.0 <= mets.p_e <= 1.0
