"""Determinant witness: value, adjugate, variance formula, exact arithmetic."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.extremal import strategy_prob_matrix
from qubitcert.noise import (
    DriftModel,
    apply_common_leakage,
    apply_readout_error,
    coherent_leak_prob_matrix,
    generate_drift_ensemble,
)
from qubitcert.witness import (
    WitnessResult,
    adjugate,
    prob_matrix,
    witness,
    witness_variance,
)

from conftest import random_config, strategy_from_config


def random_prob_rows(rng, n=4):
    return rng.uniform(0.05, 0.95, (n, 5))


# --- behaviour matrix constructor -----------------------------------------


def test_prob_matrix_appends_ones(rng):
    rows = random_prob_rows(rng)
    p = prob_matrix(rows)
    assert p.shape == (5, 5)
    assert np.array_equal(p[4], np.ones(5))
    assert np.array_equal(p[:4], rows)


def test_prob_matrix_validation(rng):
    rows = random_prob_rows(rng)
    with pytest.raises(ValueError, match=r"four rows of five, got \(5, 5\)"):
        prob_matrix(np.vstack([rows, np.ones(5)]))
    for bad, message in ((1.2, "lie in"), (np.nan, "finite")):
        rows_bad = rows.copy()
        rows_bad[0, 0] = bad
        with pytest.raises(ValueError, match=message):
            prob_matrix(rows_bad)
    with pytest.raises(ValueError, match="four rows of five"):
        prob_matrix(np.ones((5, 4)))
    # tiny roundoff excursions get clipped, not rejected
    rows_edge = rows.copy()
    rows_edge[1, 1] = 1.0 + 5e-13
    p = prob_matrix(rows_edge)
    assert p[1, 1] == 1.0


def test_prob_matrix_is_read_only(rng):
    p = prob_matrix(random_prob_rows(rng))
    with pytest.raises(ValueError):
        p[0, 0] = 0.5


def test_prob_matrix_stack_matches_one_at_a_time(rng):
    rows = rng.uniform(0.0, 1.0, (3, 7, 4, 5))
    stack = prob_matrix(rows)
    assert stack.shape == (3, 7, 5, 5)
    assert not stack.flags.writeable
    one_by_one = np.array([[prob_matrix(r) for r in block] for block in rows])
    assert stack.tobytes() == one_by_one.tobytes()


def test_every_producer_returns_a_read_only_behaviour_matrix():
    cfg = builtin_config("II-0")
    p = predicted_prob_matrix(cfg)
    singles = [
        p,
        coherent_leak_prob_matrix(cfg, 0.3),
        apply_common_leakage(p, 0.2, 0.4),
        apply_readout_error(p, 0.05, 0.1),
        strategy_prob_matrix(strategy_from_config(cfg)),
    ]
    for q in singles:
        assert q.shape == (5, 5)
        assert not q.flags.writeable
        assert np.array_equal(q[4], np.ones(5))
    for eps in (0.0, 0.02):
        for mode in ("angle-jitter", "column-mix"):
            ens = generate_drift_ensemble(cfg, DriftModel(eps, 4, mode), 0, trials=2)
            assert ens.shape == (2, 4, 5, 5)
            assert not ens.flags.writeable
            assert np.all(ens[..., 4, :] == 1.0)


# --- witness value ---------------------------------------------------------


def test_witness_of_builtin_configs_is_zero():
    for cid in ("I-prime", "I-second"):
        p = predicted_prob_matrix(builtin_config(cid))
        assert abs(witness(p)) < 1e-12


def test_witness_matches_exact_rational_determinant(rng):
    for _ in range(25):
        num = rng.integers(0, 64, (4, 5))
        rows = [[sympy.Rational(int(v), 64) for v in r] for r in num]
        rows.append([1] * 5)
        p = prob_matrix(np.array(num, dtype=float) / 64.0)
        exact = sympy.Matrix(rows).det()
        assert abs(witness(p) - float(exact)) < 1e-12


# --- adjugate --------------------------------------------------------------


def test_adjugate_agrees_with_sympy(rng):
    p = prob_matrix(random_prob_rows(rng))
    ours = adjugate(p)
    theirs = np.array(
        sympy.Matrix(p.tolist()).adjugate().tolist(), dtype=float
    )
    assert np.allclose(ours, theirs, atol=1e-10)


def test_adjugate_identity(rng):
    p = prob_matrix(random_prob_rows(rng))
    assert np.allclose(p @ adjugate(p), np.linalg.det(p) * np.eye(5), atol=1e-10)


def test_batched_adjugate_matches_per_matrix(rng):
    stack = np.stack([prob_matrix(random_prob_rows(rng)) for _ in range(7)])
    batched = adjugate(stack)
    assert batched.shape == (7, 5, 5)
    for p, adj in zip(stack, batched):
        assert np.array_equal(adj, adjugate(p))
        assert np.allclose(p @ adj, np.linalg.det(p) * np.eye(5), rtol=0.0, atol=1e-12)
    assert np.array_equal(adjugate(stack.reshape(7, 1, 5, 5))[:, 0], batched)


@pytest.mark.parametrize("shape", [(5,), (4, 5), (5, 4), (7, 5, 4), (25,)])
def test_adjugate_rejects_non_5x5_shapes(shape):
    with pytest.raises(ValueError, match="5, 5"):
        adjugate(np.zeros(shape))


def test_single_entry_perturbation_is_linear_in_adjugate(rng):
    """det(p + delta * E_jk) - det(p) = delta * Adj(p)_{kj} exactly."""
    rows = random_prob_rows(rng)
    p = prob_matrix(rows)
    adj = adjugate(p)
    base = witness(p)
    for j, k in [(0, 0), (2, 3), (3, 1), (1, 4)]:
        delta = 1e-3
        rows2 = rows.copy()
        rows2[j, k] += delta
        shifted = witness(prob_matrix(rows2))
        assert abs((shifted - base) - delta * adj[k, j]) < 1e-12


# --- variance --------------------------------------------------------------


def test_variance_scales_inversely_with_counts(rng):
    p = prob_matrix(random_prob_rows(rng))
    v1 = witness_variance(p, 1000)
    v2 = witness_variance(p, 4000)
    assert abs(v1 / v2 - 4.0) < 1e-12


def test_variance_closed_form(rng):
    """Cross-check against an index-by-index loop over the first four rows
    (the ones row contributes nothing: its entries have p(1-p) = 0)."""
    p = prob_matrix(random_prob_rows(rng))
    adj = adjugate(p)
    total = 0.0
    for k in range(4):
        for j in range(5):
            q = p[k, j]
            total += q * (1.0 - q) * adj[j, k] ** 2
    assert abs(witness_variance(p, 50_000) - total / 50_000) < 1e-18


def test_variance_of_builtin_tables():
    p1 = predicted_prob_matrix(builtin_config("I-second"))
    s1 = witness_variance(p1, 1)
    assert abs(s1 - 5.0 / 36.0) < 1e-9
    p2 = predicted_prob_matrix(builtin_config("II-0"))
    s2 = witness_variance(p2, 1)
    assert abs(s2 - 13.0 / 144.0) < 1e-9


# --- affine invariances ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_rescaling_multiplies_witness(seed):
    rng = np.random.default_rng(seed)
    rows = random_prob_rows(rng)
    base = np.linalg.det(np.vstack([rows, np.ones(5)]))
    c = rng.uniform(0.2, 0.9, 4)
    scaled = np.linalg.det(np.vstack([rows * c[:, None], np.ones(5)]))
    assert abs(scaled - base * np.prod(c)) < 1e-10


def test_mixing_a_row_toward_constant_scales_witness(rng):
    """Replacing row k by (1-t) p_k + t c leaves det proportional to (1-t):
    the constant part is parallel to the ones row."""
    rows = random_prob_rows(rng)
    base = witness(prob_matrix(rows))
    t, c = 0.35, 0.4
    rows2 = rows.copy()
    rows2[2] = (1 - t) * rows[2] + t * c
    mixed = witness(prob_matrix(rows2))
    assert abs(mixed - (1 - t) * base) < 1e-12


# --- z-score and result container -----------------------------------------


def test_z_score_and_flags(rng):
    cfg = random_config(rng)
    p = predicted_prob_matrix(cfg)
    res = WitnessResult(witness(p), float(np.sqrt(witness_variance(p, 10_000))))
    assert res.sigma > 0
    assert res.z == pytest.approx(res.W / res.sigma)
    assert WitnessResult(1e-3, None).z is None


def test_z_score_degenerate_sigma():
    rows = np.array(
        [
            [1.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, 0.0],
        ]
    )
    p = prob_matrix(rows)
    res = WitnessResult(witness(p), float(np.sqrt(witness_variance(p, 100))))
    assert res.sigma == 0.0
    assert res.z is None
