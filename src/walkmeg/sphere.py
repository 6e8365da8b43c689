"""Deterministic near-uniform point sets on the unit sphere.

The Fibonacci (golden-angle) lattice is used both for initial-coin-state
ensembles and for Bloch-sphere channel images, so repeated runs sample
exactly the same states.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["fibonacci_sphere", "sphere_angles"]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def fibonacci_sphere(n: int) -> np.ndarray:
    """Return n points (x, y, z) on the unit sphere, golden-angle spiral.

    Latitudes are z_i = 1 - (2i+1)/n, longitudes advance by the golden
    angle. Deterministic; unit norm to machine precision.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    az = _GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def sphere_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) arrays for the same lattice, theta in [0, pi], phi in [0, 2pi)."""
    pts = fibonacci_sphere(n)
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
    return theta, phi
