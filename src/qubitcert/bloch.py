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

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TWO_PI",
    "BlochVector",
    "Effect",
    "reduce_angle",
    "s_gate_bloch",
    "prep_bloch",
    "meas_bloch",
    "prep_bloch_vectors",
    "meas_bloch_vectors",
    "prob",
]

TWO_PI = 2.0 * math.pi

# Bloch rotation of the principal sqrt(NOT): x -> x, y -> z, z -> -y.
_S_BLOCH = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
    ]
)

_ATOL = 1e-12


def reduce_angle(gamma: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"angle must be finite, got {gamma!r}")
    reduced = gamma % TWO_PI
    # A tiny negative input rounds its remainder up to exactly 2*pi; keep the
    # interval half open.
    return 0.0 if reduced == TWO_PI else reduced


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BlochVector:
    """A qubit state as a Bloch vector with norm at most 1."""

    n: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.n, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {n.shape}")
        if not np.all(np.isfinite(n)):
            raise ValueError("Bloch vector entries must be finite")
        if np.linalg.norm(n) > 1.0 + _ATOL:
            raise ValueError(f"Bloch vector norm {np.linalg.norm(n)} exceeds 1")
        object.__setattr__(self, "n", _as_readonly(n))


@dataclass(frozen=True)
class Effect:
    """A binary-measurement effect (m0 + m . sigma)/2.

    Positivity of the effect and of its complement requires
    ``|m| <= m0 <= 2 - |m|``; projective effects have ``m0 = 1`` and ``|m| = 1``.
    """

    m0: float
    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3,):
            raise ValueError(f"effect vector must have shape (3,), got {m.shape}")
        if not (np.all(np.isfinite(m)) and math.isfinite(self.m0)):
            raise ValueError("effect parameters must be finite")
        norm = float(np.linalg.norm(m))
        if not (norm <= self.m0 + _ATOL and self.m0 <= 2.0 - norm + _ATOL):
            raise ValueError(
                f"effect violates |m| <= m0 <= 2 - |m|: |m|={norm}, m0={self.m0}"
            )
        object.__setattr__(self, "m", _as_readonly(m))

    @property
    def is_projective(self) -> bool:
        return (
            abs(self.m0 - 1.0) <= 1e-10
            and abs(float(np.linalg.norm(self.m)) - 1.0) <= 1e-10
        )


def _z_rotation(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def s_gate_bloch(gamma: float) -> np.ndarray:
    """Bloch rotation matrix of the phased sqrt(NOT) with phase ``gamma``."""
    z = _z_rotation(gamma)
    return z.T @ _S_BLOCH @ z


def prep_bloch_vectors(alpha, beta) -> np.ndarray:
    """Closed-form Bloch vectors of preparations S_beta S_alpha |0>.

    Broadcasts over array-valued angles; the trailing axis indexes (x, y, z).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = beta - alpha
    return np.stack(
        [np.sin(d) * np.cos(beta), -np.sin(d) * np.sin(beta), -np.cos(d)],
        axis=-1,
    )


def meas_bloch_vectors(theta, phi) -> np.ndarray:
    """Closed-form effect vectors of measurements S_phi S_theta + readout.

    The returned vector is the Heisenberg picture of the ``|0>`` projector:
    m = R(phi)^T R(theta)^T e_z.  Broadcasts like :func:`prep_bloch_vectors`.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    d = theta - phi
    return np.stack(
        [np.sin(d) * np.cos(phi), -np.sin(d) * np.sin(phi), -np.cos(d)],
        axis=-1,
    )


def prep_bloch(alpha: float, beta: float) -> BlochVector:
    """Pure state prepared by applying S_alpha then S_beta to ``|0>``."""
    return BlochVector(prep_bloch_vectors(alpha, beta))


def meas_bloch(theta: float, phi: float) -> Effect:
    """Projective effect measured by applying S_theta then S_phi, then reading
    out the computational basis and reporting the ``|0>`` outcome."""
    return Effect(1.0, meas_bloch_vectors(theta, phi))


def prob(effect: Effect, state: BlochVector) -> float:
    """Outcome probability (m0 + m . n)/2, clamped against roundoff.

    Values outside [0, 1] by more than 1e-12 indicate an invalid effect/state
    pair and raise; smaller excursions are clipped to the boundary.
    """
    p = 0.5 * (effect.m0 + float(effect.m @ state.n))
    if p < -_ATOL or p > 1.0 + _ATOL:
        raise ValueError(f"probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)
