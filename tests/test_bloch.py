"""Bloch-sphere primitives: closed forms, gate algebra, probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubitcert.bloch import (
    BlochVector,
    Effect,
    meas_bloch,
    meas_bloch_vectors,
    prep_bloch,
    prep_bloch_vectors,
    prob,
    reduce_angle,
    s_gate_bloch,
)

EZ = np.array([0.0, 0.0, 1.0])

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
    assert np.allclose(prep_bloch(alpha, beta).n, composed, atol=1e-12)


@given(angles, angles)
def test_meas_closed_form_equals_reversed_gate_composition(theta, phi):
    composed = s_gate_bloch(phi).T @ s_gate_bloch(theta).T @ EZ
    assert np.allclose(meas_bloch(theta, phi).m, composed, atol=1e-12)


def test_prep_examples():
    assert np.allclose(prep_bloch(0.0, 0.0).n, [0, 0, -1], atol=1e-15)
    assert np.allclose(
        prep_bloch(2 * np.pi / 3, np.pi / 6).n,
        [-math.sqrt(3) / 2, 0.5, 0.0],
        atol=1e-12,
    )
    eta = math.acos(1.0 / 3.0)
    assert np.allclose(
        prep_bloch(eta - np.pi, 0.0).n,
        [2.0 * math.sqrt(2.0) / 3.0, 0.0, 1.0 / 3.0],
        atol=1e-12,
    )


def test_meas_examples():
    assert np.allclose(meas_bloch(np.pi, 0.0).m, [0, 0, 1], atol=1e-12)
    assert np.allclose(meas_bloch(np.pi / 2, np.pi).m, [1, 0, 0], atol=1e-12)
    for common in (0.0, 1.3, 4.0):
        assert np.allclose(meas_bloch(common, common).m, [0, 0, -1], atol=1e-12)


@given(angles, angles)
def test_prep_is_pure_and_meas_is_projective(a, b):
    assert abs(np.linalg.norm(prep_bloch(a, b).n) - 1.0) < 1e-12
    e = meas_bloch(a, b)
    assert e.m0 == 1.0
    assert abs(np.linalg.norm(e.m) - 1.0) < 1e-12
    assert e.is_projective


def test_vectorized_forms_match_scalar(rng):
    a = rng.uniform(0, 2 * np.pi, 40)
    b = rng.uniform(0, 2 * np.pi, 40)
    stacked = prep_bloch_vectors(a, b)
    for i in range(40):
        assert np.allclose(stacked[i], prep_bloch(a[i], b[i]).n, atol=1e-15)
    stacked = meas_bloch_vectors(a, b)
    for i in range(40):
        assert np.allclose(stacked[i], meas_bloch(a[i], b[i]).m, atol=1e-15)


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


# --- states, effects, probabilities ---------------------------------------


def test_state_and_effect_validation():
    with pytest.raises(ValueError):
        BlochVector([1.1, 0.0, 0.0])
    with pytest.raises(ValueError):
        BlochVector([0.0, 0.0])
    BlochVector([0.3, 0.0, 0.4])  # mixed states are fine
    with pytest.raises(ValueError):
        Effect(0.5, [0.0, 0.0, 0.9])  # m0 < |m|
    with pytest.raises(ValueError):
        Effect(1.8, [0.0, 0.0, 0.9])  # m0 > 2 - |m|
    Effect(1.0, [0.0, 0.0, 1.0])
    Effect(0.7, [0.1, 0.2, 0.3])


def test_prob_examples():
    up = BlochVector([0, 0, 1])
    proj_up = Effect(1.0, [0, 0, 1])
    assert prob(proj_up, up) == 1.0
    assert abs(prob(proj_up, BlochVector([-math.sqrt(3) / 2, 0.5, 0.0])) - 0.5) < 1e-15
    n = BlochVector([2 * math.sqrt(2) / 3, 0, 1 / 3])
    assert abs(prob(proj_up, n) - 2.0 / 3.0) < 1e-12


def test_prob_clamps_only_roundoff():
    up = BlochVector([0, 0, 1])
    down_effect = Effect(1.0, [0, 0, -1])
    assert prob(down_effect, up) == 0.0
    with pytest.raises(ValueError):
        # An invalid pairing smuggled past construction tolerances cannot be
        # built here, so force it via object surgery.
        bad = Effect(1.0, [0, 0, 1])
        object.__setattr__(bad, "m0", 1.5)
        prob(bad, up)


@given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_prob_affine_in_the_state(t, f, a, b):
    e = meas_bloch(t, f)
    n1, n2 = prep_bloch(a, b), prep_bloch(b, a)
    mid = BlochVector(0.5 * (n1.n + n2.n))
    assert abs(prob(e, mid) - 0.5 * (prob(e, n1) + prob(e, n2))) < 1e-12
