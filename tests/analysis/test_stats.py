"""Tests for the statistics helpers."""

import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import pytest
from hypothesis import given, strategies as st

import repro
from repro.analysis.stats import mean_ci, proportion_ci, t_quantile

#: scipy 1.17.1 ``stats.t.ppf(0.975, df)`` for the pinned degrees of freedom.
_T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    4: 2.7764451051977934,
    9: 2.262157162798205,
    29: 2.045229642132703,
    99: 1.9842169515864174,
}


@pytest.mark.parametrize("df", sorted(_T_975))
def test_t_quantile_matches_scipy(df):
    assert abs(t_quantile(0.975, df) - _T_975[df]) < 1e-9
    assert abs(t_quantile(0.025, df) + _T_975[df]) < 1e-9


def test_normal_quantile_matches_scipy():
    # scipy 1.17.1 stats.norm.ppf(0.975), the z proportion_ci used to take.
    assert abs(NormalDist().inv_cdf(0.975) - 1.959963984540054) < 1e-9


@pytest.mark.parametrize(
    "interval, low, high",
    [
        # Recorded from the scipy-based implementation.
        (lambda: proportion_ci(32, 48), 0.5254010970594798, 0.7832321930518142),
        (lambda: proportion_ci(0, 10), 0.0, 0.2775327998628892),
        (lambda: mean_ci([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0367568385224428, 4.963243161477557),
        (lambda: mean_ci([0.5, 1.5, 0.25, 3.0]), -0.6732111254136033, 3.2982111254136033),
    ],
)
def test_intervals_match_the_scipy_implementation(interval, low, high):
    estimate = interval()
    assert abs(estimate.low - low) < 1e-9
    assert abs(estimate.high - high) < 1e-9


def test_t_quantile_rejects_probabilities_outside_the_open_interval():
    for p in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            t_quantile(p, 3)


def test_stats_imports_neither_scipy_nor_numpy():
    code = (
        "import sys, repro.analysis.stats; "
        "loaded = {'scipy', 'numpy'} & set(sys.modules); "
        "assert not loaded, f'imported {loaded}'"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_mean_ci_basic():
    estimate = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0])
    assert estimate.mean == 3.0
    assert estimate.low < 3.0 < estimate.high
    assert estimate.samples == 5
    assert estimate.contains(3.0)


def test_mean_ci_single_sample_degenerates():
    estimate = mean_ci([7.0])
    assert estimate.mean == estimate.low == estimate.high == 7.0


def test_mean_ci_zero_variance():
    estimate = mean_ci([2.0, 2.0, 2.0])
    assert estimate.low == estimate.high == 2.0


def test_mean_ci_width_shrinks_with_samples():
    narrow = mean_ci([1.0, 2.0] * 50)
    wide = mean_ci([1.0, 2.0] * 2)
    assert (narrow.high - narrow.low) < (wide.high - wide.low)


def test_mean_ci_requires_samples():
    with pytest.raises(ValueError):
        mean_ci([])


def test_proportion_ci_two_thirds():
    estimate = proportion_ci(32, 48)
    assert estimate.mean == pytest.approx(2 / 3)
    assert 0 < estimate.low < 2 / 3 < estimate.high < 1


def test_proportion_ci_extremes_stay_in_unit_interval():
    # Wilson at the extremes: the bound away from the extreme is nontrivial
    # (its defining advantage over the naive [1, 1] interval).
    all_success = proportion_ci(10, 10)
    assert all_success.high == 1.0
    assert 0.5 < all_success.low < 1.0
    none = proportion_ci(0, 10)
    assert none.low == 0.0
    assert none.high < 0.5


def test_proportion_ci_validation():
    with pytest.raises(ValueError):
        proportion_ci(1, 0)
    with pytest.raises(ValueError):
        proportion_ci(5, 4)


def test_str_rendering():
    text = str(mean_ci([1.0, 2.0, 3.0]))
    assert "n=3" in text
    assert "95%" in text


@given(
    successes=st.integers(0, 50),
    extra=st.integers(0, 50),
)
def test_property_wilson_interval_is_sane(successes, extra):
    trials = successes + extra
    if trials == 0:
        return
    estimate = proportion_ci(successes, trials)
    assert 0.0 <= estimate.low <= estimate.high <= 1.0
    assert estimate.low <= estimate.mean <= estimate.high


@given(values=st.lists(st.floats(-100, 100), min_size=2, max_size=30))
def test_property_mean_inside_its_interval(values):
    estimate = mean_ci(values)
    assert estimate.low <= estimate.mean <= estimate.high
