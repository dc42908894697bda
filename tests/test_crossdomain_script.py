"""The paired statistic of scripts/run_crossdomain.py."""

import importlib.util
import os
import subprocess
import sys
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


def test_script_pins_one_blas_thread_unless_the_environment_sets_it():
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["MKL_NUM_THREADS"] = "3"
    probe = ("import importlib.util, os, sys\n"
             "spec = importlib.util.spec_from_file_location('m', sys.argv[1])\n"
             "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
             f"print(','.join(os.environ[v] for v in {names!r}))\n")
    out = subprocess.run([sys.executable, "-c", probe, str(SCRIPT)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1,1,3,1,1,1"
