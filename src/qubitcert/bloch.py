"""Bloch-sphere primitives for prepare-and-measure circuits built from phased
square-root-of-NOT gates.

Conventions
-----------
The computational basis state ``|0>`` sits at the north pole ``(0, 0, 1)`` of
the Bloch sphere.  The only gate in the toolkit is the phased sqrt(NOT)

    S_gamma = Z_gamma^dagger . S . Z_gamma,

where ``S`` is the principal square root of NOT (Bloch rotation by pi/2 about
the x axis) and ``Z_gamma = diag(exp(-i gamma / 2), exp(+i gamma / 2))``.  On
Bloch vectors this acts as the orthogonal matrix

    R(gamma) = Z(gamma)^T . S_b . Z(gamma),

with ``S_b`` the rotation matrix of ``S`` and ``Z(gamma)`` the rotation by
``gamma`` about z.  Preparations apply two such gates to ``|0>``; measurements
apply two more followed by a computational-basis readout, which is the same as
measuring the effect obtained by running the gates backwards over the
projector onto ``|0>``.

All closed forms below were obtained by multiplying the rotation matrices out
and are exercised against direct matrix products in the test suite.
"""

from __future__ import annotations

import numpy as np

from .seeding import real_arg

__all__ = ["reduce_angle", "prep_bloch_vectors", "meas_bloch_vectors"]

TWO_PI = 2.0 * np.pi


def reduce_angle(gamma: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    reduced = real_arg("angle", gamma) % TWO_PI
    # A tiny negative input rounds its remainder up to exactly 2*pi; keep the
    # interval half open.
    return 0.0 if reduced == TWO_PI else reduced


def _bloch(d, g) -> np.ndarray:
    """The closed form (sin d cos g, -sin d sin g, -cos d) of both kinds of
    vector, broadcast over the angles; the trailing axis indexes (x, y, z)."""
    out = np.empty(np.broadcast_shapes(np.shape(d), np.shape(g)) + (3,))
    sin_d = np.sin(d)
    np.multiply(sin_d, np.cos(g), out=out[..., 0])
    # -(s * t) has the bits of (-s) * t: rounding is symmetric in sign
    np.negative(np.multiply(sin_d, np.sin(g), out=out[..., 1]), out=out[..., 1])
    np.negative(np.cos(d), out=out[..., 2])
    return out


def prep_bloch_vectors(alpha, beta) -> np.ndarray:
    """Closed-form Bloch vectors of preparations S_beta S_alpha |0>.

    Broadcasts over array-valued angles; the trailing axis indexes (x, y, z).
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    return _bloch(beta - alpha, beta)


def meas_bloch_vectors(theta, phi) -> np.ndarray:
    """Closed-form effect vectors of measurements S_phi S_theta + readout.

    The returned vector is the Heisenberg picture of the ``|0>`` projector:
    m = R(phi)^T R(theta)^T e_z.  Broadcasts like :func:`prep_bloch_vectors`.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    return _bloch(theta - phi, phi)
