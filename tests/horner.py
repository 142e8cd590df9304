"""The tests' Horner reference for every circle transform and scan, and
the dense section oracle for the radius rings."""

import numpy as np

from harmcert.geometry import RadiusKind
from harmcert.series import derivative


def eval_array(F, zs):
    """Vectorized Horner evaluation of the series F on an array of points.

    Independent of the FFT: harmcert's circle values come from
    series.circle_values, and its scans run Horner (numpy.polyval) only
    at their candidate angles.
    """
    return np.polyval(np.asarray(F.coeffs, dtype=complex)[::-1], zs)


def ring_parts(f, kind):
    """The denominator parts p, q of kind's functional, and its offset."""
    if kind is RadiusKind.STARLIKE:
        return f.h, f.g, 0.0
    return derivative(f.h), derivative(f.g), 1.0


def least_section_functional(f, kind, r, n=8192, zetas=64):
    """Oracle: the least functional of the sections h + zeta g, for zetas
    equispaced unimodular zeta, on n equispaced angles of the ring r, from
    Horner values: Re((u + zeta v) conj(D)) / |D|^2 with D = p + zeta q,
    u = z p' + offset p and v = z q' + offset q."""
    p, q, offset = ring_parts(f, kind)
    zeta = np.exp(2j * np.pi * np.arange(zetas) / zetas)[:, None]
    z = r * np.exp(2j * np.pi * np.arange(n) / n)
    P, Q = eval_array(p, z), eval_array(q, z)
    U = z * eval_array(derivative(p), z) + offset * P
    V = z * eval_array(derivative(q), z) + offset * Q
    D = P + zeta * Q
    return float(np.min(((U + zeta * V) * np.conj(D)).real / np.abs(D) ** 2))
