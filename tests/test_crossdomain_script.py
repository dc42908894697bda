"""The paired statistic of scripts/run_crossdomain.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_crossdomain.py"
_spec = importlib.util.spec_from_file_location("run_crossdomain", SCRIPT)
crossdomain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(crossdomain)


def test_t_interval_two_values():
    # mean 2, sample sd sqrt(2), n 2, df 1: 12.706 * sqrt(2) / sqrt(2)
    mean, half = crossdomain.t_interval([1.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert half == pytest.approx(12.706)


def test_t_interval_five_values():
    # mean 3, sample sd sqrt(2.5), n 5, df 4: 2.776 * sqrt(2.5) / sqrt(5)
    mean, half = crossdomain.t_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mean == pytest.approx(3.0)
    assert half == pytest.approx(2.776 * 0.5 ** 0.5)


def test_t_interval_df_between_rows_takes_the_smaller_df():
    # df 13 is not a row, so df 12's quantile 2.179 is used.
    values = [1.0, -1.0] * 7
    mean, half = crossdomain.t_interval(values)
    sd = (14 / 13) ** 0.5
    assert mean == pytest.approx(0.0)
    assert half == pytest.approx(2.179 * sd / 14 ** 0.5)


def test_t_interval_large_n_is_near_normal():
    values = [1.0, -1.0] * 2000
    _, half = crossdomain.t_interval(values)
    sd = (4000 / 3999) ** 0.5
    assert half == pytest.approx(1.962 * sd / 4000 ** 0.5)


def test_t_interval_needs_two_values():
    with pytest.raises(ValueError):
        crossdomain.t_interval([1.0])
