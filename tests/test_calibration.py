"""A small slice of ``tools/calibrate.py``: the count bound's coverage and
mean remaining error stay near the values measured when this test was
written.

The slice is the hyperbolic family (the default rate) on the twelve clean
seed-1 topics, under both processes, at the script's settings (n = 3,000,
target recall 0.99, confidence 0.95). Measured values, over all twelve
topics:

    process  checkpoints  coverage          mean remaining error
    ip       154          122/154 = 0.792   3.003
    cox      152          138/152 = 0.908   17.075

Margins: coverage may fall by at most 0.03, and the mean remaining error
may move by at most a tenth of its value either way (a bound that grows
costs screening; one that shrinks misses). Coverage alone is a weak
guard: a lower bound stops screening earlier, which also drops the late
checkpoints it would miss. Summing the cdf 3% high left both coverages
within 0.02 but moved the Cox error by 19%. A change that moves either
past its margin changes how the bound is calibrated and should report
the full table before and after.
"""

import importlib.util
from pathlib import Path

import pytest

import tarstop as ts

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"

MEASURED = {  # process -> (coverage, mean remaining error)
    "ip": (122 / 154, 3.0029),
    "cox": (138 / 152, 17.0752),
}
COVERAGE_MARGIN = 0.03
ERROR_MARGIN = 0.1  # relative


@pytest.fixture(scope="module")
def overall_rows():
    spec = importlib.util.spec_from_file_location("calibrate", _SCRIPT)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    pool = calibrate.topics(seeds=(1,), noises=(0.0,))
    rows = calibrate.rows(pool, families=(ts.RateKind.HYPERBOLIC,))
    return {row["process"]: row for row in rows if row["bucket"] == "all"}


@pytest.mark.parametrize("process", ["ip", "cox"])
def test_coverage_and_error_within_margins(overall_rows, process):
    row = overall_rows[process]
    coverage, error = MEASURED[process]
    assert row["topics"] == 12
    assert row["checkpoints"] >= 100
    assert row["coverage"] >= coverage - COVERAGE_MARGIN
    assert row["mean_remaining_error"] == pytest.approx(error, rel=ERROR_MARGIN)


def test_cox_covers_more_than_the_fixed_mean(overall_rows):
    # the parameter-uncertainty mixture widens the bound
    assert overall_rows["cox"]["coverage"] > overall_rows["ip"]["coverage"]
