"""Integer log-gamma, the log-factorial table and the logistic function,
against scipy as the oracle; and scipy staying off the import path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit as scipy_expit
from scipy.special import gammaln

import tarstop
from tarstop import estimates, rates, special
from tarstop.special import expit, log_factorials, log_gamma


class TestLogGamma:
    def test_table_equals_gammaln_to_2_16(self):
        k = np.arange(2**16 + 1, dtype=float)
        table = log_factorials(k.size)
        assert np.array_equal(table, gammaln(k + 1))

    def test_scalar_equals_gammaln_to_2_16(self):
        mismatched = [x for x in range(1, 2**16 + 2) if log_gamma(x) != gammaln(x)]
        assert mismatched == []

    def test_scalar_equals_gammaln_on_a_sample_to_2_22(self, rng):
        xs = rng.integers(1, 2**22 + 2, size=20_000).tolist()
        xs += [12, 13, 999, 1000, 1001, 2**22, 2**22 + 1, 10**8, 10**8 + 1, 2**40]
        assert [x for x in xs if log_gamma(x) != gammaln(float(x))] == []

    def test_rejects_non_integers(self):
        for bad in (0, -3, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                log_gamma(bad)

    def test_table_grows_by_doubling_and_keeps_its_values(self):
        small = log_factorials(100).copy()
        have = special._log_factorials.size
        large = log_factorials(have + 1)
        assert large.size == have + 1
        assert special._log_factorials.size == 2 * have
        assert np.array_equal(large[:100], small)
        assert not large.flags.writeable

    def test_ap_normalizer_and_pmf_unchanged(self, rng):
        for n in [2, 3, 12, 13, 999, 1000, 5000, 100_000, 10_000_000]:
            expected = n * math.log(n) - float(gammaln(n + 1))
            assert rates._ap_normalizer(n) == expected
        for mean, m in zip(rng.uniform(0.1, 500.0, 200), rng.integers(0, 2000, 200)):
            m = int(m)
            expected = math.exp(-mean + m * math.log(mean) - float(gammaln(m + 1)))
            assert estimates.poisson_pmf(float(mean), m) == expected


class TestExpit:
    def test_equals_scipy_on_the_clipped_range(self, rng):
        xs = rng.uniform(-50.0, 50.0, 50_000)
        ours = np.array([expit(x) for x in xs.tolist()])
        assert np.array_equal(ours, scipy_expit(xs))


def test_cli_import_loads_no_scipy():
    src = Path(tarstop.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, tarstop.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
