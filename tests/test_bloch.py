"""Bloch-sphere closed forms against gate-by-gate rotation products, and
angle reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubitcert.bloch import meas_bloch_vectors, prep_bloch_vectors, reduce_angle

EZ = np.array([0.0, 0.0, 1.0])

# Bloch rotation of the principal sqrt(NOT): x -> x, y -> z, z -> -y.
_S_BLOCH = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
    ]
)


def _z_rotation(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def s_gate_bloch(gamma: float) -> np.ndarray:
    """Bloch rotation matrix of the phased sqrt(NOT) with phase ``gamma``,
    the gate-by-gate reference the closed forms are checked against."""
    z = _z_rotation(gamma)
    return z.T @ _S_BLOCH @ z

angles = st.floats(-50.0, 50.0, allow_nan=False)


# --- gate matrix -----------------------------------------------------------


def test_gate_at_zero_phase_is_quarter_turn_about_x():
    expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.allclose(s_gate_bloch(0.0), expected, atol=1e-15)


@given(angles)
def test_gate_is_special_orthogonal(gamma):
    r = s_gate_bloch(gamma)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


@given(angles)
def test_gate_fourth_power_is_identity(gamma):
    r = s_gate_bloch(gamma)
    assert np.allclose(np.linalg.matrix_power(r, 4), np.eye(3), atol=1e-12)


def test_gate_matches_hilbert_space_conjugation(rng):
    """R_ab = tr(sigma_a U sigma_b U^dag)/2 for U = Z^dag S Z must reproduce
    the Bloch matrix — a fully independent derivation of the same rotation."""
    s = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)
    paulis = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    for gamma in rng.uniform(0.0, 2.0 * np.pi, 25):
        z = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
        u = z.conj().T @ s @ z
        r = np.array(
            [
                [(p_a @ u @ p_b @ u.conj().T).trace().real / 2.0 for p_b in paulis]
                for p_a in paulis
            ]
        )
        assert np.allclose(r, s_gate_bloch(gamma), atol=1e-12)


# --- closed forms ----------------------------------------------------------


@given(angles, angles)
def test_prep_closed_form_equals_gate_composition(alpha, beta):
    composed = s_gate_bloch(beta) @ s_gate_bloch(alpha) @ EZ
    assert np.allclose(prep_bloch_vectors(alpha, beta), composed, atol=1e-12)


@given(angles, angles)
def test_meas_closed_form_equals_reversed_gate_composition(theta, phi):
    composed = s_gate_bloch(phi).T @ s_gate_bloch(theta).T @ EZ
    assert np.allclose(meas_bloch_vectors(theta, phi), composed, atol=1e-12)


def test_prep_examples():
    assert np.allclose(prep_bloch_vectors(0.0, 0.0), [0, 0, -1], atol=1e-15)
    assert np.allclose(
        prep_bloch_vectors(2 * np.pi / 3, np.pi / 6),
        [-math.sqrt(3) / 2, 0.5, 0.0],
        atol=1e-12,
    )
    eta = math.acos(1.0 / 3.0)
    assert np.allclose(
        prep_bloch_vectors(eta - np.pi, 0.0),
        [2.0 * math.sqrt(2.0) / 3.0, 0.0, 1.0 / 3.0],
        atol=1e-12,
    )


def test_meas_examples():
    assert np.allclose(meas_bloch_vectors(np.pi, 0.0), [0, 0, 1], atol=1e-12)
    assert np.allclose(meas_bloch_vectors(np.pi / 2, np.pi), [1, 0, 0], atol=1e-12)
    for common in (0.0, 1.3, 4.0):
        assert np.allclose(meas_bloch_vectors(common, common), [0, 0, -1], atol=1e-12)


@given(angles, angles)
def test_prep_is_pure_and_meas_is_projective(a, b):
    # unit Bloch vectors: pure states, and rank-1 projectors (1 + m . sigma)/2
    assert abs(np.linalg.norm(prep_bloch_vectors(a, b)) - 1.0) < 1e-12
    assert abs(np.linalg.norm(meas_bloch_vectors(a, b)) - 1.0) < 1e-12


def test_vectorized_forms_match_scalar(rng):
    a = rng.uniform(0, 2 * np.pi, 40)
    b = rng.uniform(0, 2 * np.pi, 40)
    stacked = prep_bloch_vectors(a, b)
    for i in range(40):
        assert np.allclose(stacked[i], prep_bloch_vectors(a[i], b[i]), atol=1e-15)
    stacked = meas_bloch_vectors(a, b)
    for i in range(40):
        assert np.allclose(stacked[i], meas_bloch_vectors(a[i], b[i]), atol=1e-15)


# --- angle handling --------------------------------------------------------


def test_reduce_angle():
    assert reduce_angle(2 * np.pi) == 0.0
    assert abs(reduce_angle(-np.pi / 2) - 1.5 * np.pi) < 1e-12
    assert abs(reduce_angle(7 * np.pi) - np.pi) < 1e-12
    with pytest.raises(ValueError):
        reduce_angle(float("nan"))
    with pytest.raises(ValueError):
        reduce_angle(float("inf"))


@given(angles)
def test_angle_reduction_preserves_gate(gamma):
    g = reduce_angle(gamma)
    assert 0.0 <= g < 2 * np.pi
    assert np.allclose(s_gate_bloch(g), s_gate_bloch(gamma), atol=1e-11)
