"""Log-gamma at integers and the logistic function, in pure Python.

``log_gamma`` ports the Cephes ``lgam`` routine for positive integer
arguments only: an exact factorial product below 13 and Stirling's series
above. Every step runs in Cephes' order with ``math.log``, the C
library's ``log``, so each value equals the C routine's bit for bit.
numpy's vectorised ``log`` differs from it in the last bit for some
arguments, so the log-factorial table is built one entry at a time.
"""

from __future__ import annotations

import math

import numpy as np

_LS2PI = 0.91893853320467274178  # log(sqrt(2*pi))
# Stirling series coefficients, highest power first (Cephes A[])
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def log_gamma(x: int) -> float:
    """log(Gamma(x)) = log((x-1)!) for a positive integer x."""
    x = float(x)
    if not (x >= 1.0 and x.is_integer()):
        raise ValueError(f"log_gamma takes a positive integer, got {x}")
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _STIRLING[0]
    for coef in _STIRLING[1:]:
        poly = poly * p + coef
    return q + poly / x


# log(k!) for k = 0, 1, ...; grown by doubling and never shrunk
_log_factorials = np.empty(0)


def log_factorials(size: int) -> np.ndarray:
    """Read-only view of log(k!) for k = 0..size-1."""
    global _log_factorials
    have = _log_factorials.size
    if size > have:
        grown = max(size, 2 * have)
        table = np.empty(grown)
        table[:have] = _log_factorials
        table[have:] = [log_gamma(k + 1) for k in range(have, grown)]
        table.flags.writeable = False
        _log_factorials = table
    return _log_factorials[:size]


def expit(x: float) -> float:
    """The logistic function 1 / (1 + exp(-x))."""
    return 1.0 / (1.0 + math.exp(-x))
