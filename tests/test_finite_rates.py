"""Infinite rates are refused where a rate enters the package."""

import math

import pytest

from seqkey.cli import main, parse_grid
from seqkey.errors import ParameterError
from seqkey.gaussian import GaussianSource
from seqkey.measures import check_rate
from seqkey.quantize import gap_bound


@pytest.mark.parametrize("positive", [False, True])
def test_check_rate_refuses_infinity(positive):
    with pytest.raises(ParameterError, match="^rate must be finite, got inf"):
        check_rate(math.inf, positive=positive)
    with pytest.raises(ParameterError, match="^rate must be "):
        check_rate(-math.inf, positive=positive)
    assert check_rate(1e300, positive=positive) == 1e300


def test_gap_bound_refuses_infinite_rate():
    # inf * 0 in the first term made the bound NaN
    with pytest.raises(ParameterError, match="finite"):
        gap_bound(GaussianSource(rho_xy=0.75), math.inf)
    with pytest.raises(ParameterError, match="positive"):
        gap_bound(GaussianSource(rho_xy=0.75), math.nan)


@pytest.mark.parametrize("spec, name", [
    ("linear:0.1:inf:3", "stop"), ("linear:-inf:0.5:3", "start"),
    ("log:0.1:inf:3", "stop"), ("linear:nan:0.5:3", "start"),
    ("linear:0.1:nan:3", "stop"),
])
def test_parse_grid_names_the_nonfinite_endpoint(spec, name):
    with pytest.raises(ParameterError, match=f"grid {name} must be finite"):
        parse_grid(spec)


def test_capacity_with_infinite_grid_names_the_endpoint(capsys):
    assert main(["capacity", "bsc", "--p", "0.1", "--q", "0.2",
                 "--r1", "linear:0.1:inf:3"]) == 2
    assert "grid stop must be finite, got inf" in capsys.readouterr().err
