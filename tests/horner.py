"""The tests' Horner reference for every circle transform and scan."""

import numpy as np


def eval_array(F, zs):
    """Vectorized Horner evaluation of the series F on an array of points.

    Independent of the FFT: harmcert's circle values come from
    series.circle_values, and its scans run Horner (numpy.polyval) only
    at their candidate angles.
    """
    return np.polyval(np.asarray(F.coeffs, dtype=complex)[::-1], zs)
