"""Extremal witness search: see-saw ascent, exact classical maximum, export."""

import json
import math

import numpy as np
import pytest
import sympy

from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.extremal import (
    DEFAULT_RESTARTS,
    _random_point,
    ExtremalProblem,
    SearchResult,
    StrategyPoint,
    classical_max_detail,
    maximize_witness,
    save_search_result,
    search_result_to_dict,
    strategy_prob_matrix,
)
from qubitcert.witness import ProbMatrix, adjugate, witness

from conftest import random_config, strategy_from_config

D3_REAL_MAX = 27.0 * math.sqrt(2.0) / 64.0
D3_COMPLEX_MAX = 0.631920101756  # numerical, no known closed form
D4_MAX = 2.0**12 / 3.0**7


# --- containers ------------------------------------------------------------


def test_problem_validation():
    ExtremalProblem(3, "real", "general")
    with pytest.raises(ValueError):
        ExtremalProblem(5)
    with pytest.raises(ValueError):
        ExtremalProblem(3, field="rational")
    with pytest.raises(ValueError):
        ExtremalProblem(3, effect_class="positive")


def test_strategy_point_validation(rng):
    psi = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    effects = np.zeros((4, 3, 3), dtype=complex)
    for k in range(4):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        effects[k] = np.outer(v, v.conj())
    pt = StrategyPoint(psi, effects)
    assert pt.d == 3

    with pytest.raises(ValueError, match="unit"):
        StrategyPoint(2.0 * psi, effects)
    bad = effects.copy()
    bad[0, 0, 1] = 5.0
    with pytest.raises(ValueError, match="Hermitian"):
        StrategyPoint(psi, bad)
    bad = effects.copy()
    bad[1] = 2.0 * np.eye(3)
    with pytest.raises(ValueError, match="spectra"):
        StrategyPoint(psi, bad)
    with pytest.raises(ValueError):
        StrategyPoint(psi[:4], effects)


def test_search_result_rejects_impossible_witness(rng):
    pt = strategy_from_config(builtin_config("I-second"))
    with pytest.raises(ValueError):
        SearchResult(best_W=3.5, best_point=pt, restarts=1, converged=True)


# --- representation equivalence --------------------------------------------


def test_config_and_hilbert_representations_agree(rng):
    for cfg in [builtin_config(c) for c in ("I-prime", "I-second", "II-3")] + [
        random_config(rng) for _ in range(5)
    ]:
        pt = strategy_from_config(cfg)
        assert pt.d == 2
        a = strategy_prob_matrix(pt).p
        b = predicted_prob_matrix(cfg).p
        assert np.max(np.abs(a - b)) < 1e-12


def test_strategy_prob_matrix_row_entries(rng):
    psi = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    effects = np.zeros((4, 4, 4), dtype=complex)
    for k in range(4):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        effects[k] = np.outer(v, v.conj())
    p = strategy_prob_matrix(StrategyPoint(psi, effects))
    assert np.all(p.p >= 0.0) and np.all(p.p <= 1.0)
    assert np.array_equal(p.p[4], np.ones(5))
    # spot-check one cell against the quadratic form
    want = float((psi[2].conj() @ effects[1] @ psi[2]).real)
    assert p.p[1, 2] == pytest.approx(want, abs=1e-12)


# --- exact classical maximum -----------------------------------------------


def test_classical_maximum_detail():
    best, count, example = classical_max_detail()
    assert best == 3
    assert count == 1920
    assert example.shape == (5, 5)
    assert np.array_equal(example[4], np.ones(5, dtype=np.int64))
    assert set(np.unique(example[:4])) <= {0, 1}
    exact = sympy.Matrix(example.tolist()).det()
    assert abs(exact) == 3


def test_classical_max_is_exact_int():
    best = classical_max_detail()[0]
    assert best == 3
    assert isinstance(best, int)


# --- searches (reduced budgets; full budgets live in the acceptance suite) --


def test_qubit_search_finds_zero():
    for field in ("real", "complex"):
        res = maximize_witness(ExtremalProblem(2, field=field), restarts=10, seed=0)
        assert abs(res.best_W) < 1e-8
        assert res.restarts == 10


def test_every_qubit_restart_converges_to_zero():
    """Not just the best: single-restart runs from many seeds must all land
    below 1e-8 — a strong regression on the parametrization itself."""
    for seed in range(8):
        res = maximize_witness(ExtremalProblem(2), restarts=1, seed=seed)
        assert abs(res.best_W) < 1e-8, seed


def test_d3_real_search_regression():
    res = maximize_witness(ExtremalProblem(3, field="real"), restarts=20, seed=0)
    assert res.best_W == pytest.approx(D3_REAL_MAX, abs=1e-9)
    assert res.converged


def test_d3_complex_search_regression():
    res = maximize_witness(ExtremalProblem(3, field="complex"), restarts=40, seed=0)
    assert res.best_W == pytest.approx(D3_COMPLEX_MAX, abs=1e-8)
    assert res.best_W > D3_REAL_MAX + 0.03  # complex strictly beats real in d=3


def test_d4_search_regression():
    res = maximize_witness(ExtremalProblem(4), restarts=60, seed=0)
    assert res.best_W == pytest.approx(D4_MAX, abs=1e-9)


def test_search_is_deterministic():
    a = maximize_witness(ExtremalProblem(3, field="real"), restarts=3, seed=12)
    b = maximize_witness(ExtremalProblem(3, field="real"), restarts=3, seed=12)
    assert a.best_W == b.best_W
    assert np.array_equal(a.best_point.preparations, b.best_point.preparations)


def test_search_point_reproduces_reported_witness():
    res = maximize_witness(ExtremalProblem(3, field="real"), restarts=10, seed=1)
    w = witness(strategy_prob_matrix(res.best_point))
    assert w == pytest.approx(res.best_W, abs=1e-9)


def _one_restart_reference(problem, seed, r, sweeps=500, tol=1e-14):
    """The see-saw run one restart at a time: (final W, sweeps, converged)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
    psi, effects = _random_point(problem, rng)

    def rows(ps, ef):
        return np.einsum("jd,kde,je->kj", ps.conj(), ef, ps).real

    p = np.vstack([rows(psi, effects), np.ones(5)])
    w = float(np.linalg.det(p))
    for n in range(1, sweeps + 1):
        w_start = w
        for k in range(4):
            cof = adjugate(p).T
            g = np.einsum("j,jd,je->de", cof[k], psi, psi.conj())
            lam, v = np.linalg.eigh(0.5 * (g + g.conj().T))
            keep = v[:, lam > 0.0]
            effects[k] = keep @ keep.conj().T
            p[k] = rows(psi, effects[k : k + 1])[0]
        for j in range(5):
            cof = adjugate(p).T
            h = np.einsum("k,kde->de", cof[:4, j], effects)
            lam, v = np.linalg.eigh(0.5 * (h + h.conj().T))
            psi[j] = v[:, -1]
            p[:4, j] = rows(psi[j : j + 1], effects)[:, 0]
        w = float(np.linalg.det(p))
        if abs(w - w_start) < tol:
            return w, n, True
    return w, sweeps, False


@pytest.mark.parametrize("problem", [ExtremalProblem(3, "complex"), ExtremalProblem(4, "real")])
def test_batched_restarts_match_one_at_a_time(problem):
    res = maximize_witness(problem, restarts=6, seed=7, polish_iters=0)
    for r in range(6):
        got = (res.restart_W[r], res.restart_sweeps[r], res.restart_converged[r])
        assert got == _one_restart_reference(problem, 7, r), r


def test_restart_results_do_not_depend_on_batch_size():
    """Restart r ends at the same bits whether 12 or 40 restarts ascend
    beside it; read from the exported landscape."""
    problem = ExtremalProblem(3, field="complex")
    few, many = (
        search_result_to_dict(
            maximize_witness(problem, restarts=n, seed=5, polish_iters=0), problem
        )["landscape"]
        for n in (12, 40)
    )
    assert len(few["W"]) == 12 and len(many["W"]) == 40
    for key in ("W", "sweeps", "converged"):
        assert few[key] == many[key][:12], key


def test_landscape_describes_every_restart():
    res = maximize_witness(ExtremalProblem(3, field="real"), restarts=6, seed=0, sweeps=40)
    assert res.restart_W.shape == res.restart_sweeps.shape == (6,)
    assert res.restart_converged.dtype == bool
    assert np.all((res.restart_sweeps >= 1) & (res.restart_sweeps <= 40))
    # a restart that stopped short of the cap did so because it converged
    assert np.all(res.restart_converged | (res.restart_sweeps == 40))
    assert np.max(res.restart_W) <= res.best_W + 1e-12


def test_restart_validation():
    with pytest.raises(ValueError):
        maximize_witness(ExtremalProblem(2), restarts=0)


def test_default_restart_budgets():
    assert DEFAULT_RESTARTS == {2: 50, 3: 200, 4: 500}


# --- export -----------------------------------------------------------------


def test_export_structure_and_consistency(tmp_path):
    problem = ExtremalProblem(3, field="real")
    res = maximize_witness(problem, restarts=10, seed=2)
    d = search_result_to_dict(res, problem)
    assert d["problem"] == {"d": 3, "field": "real", "effect_class": "projective"}
    assert d["best_W"] == res.best_W
    assert d["converged"] is res.converged
    assert len(d["preparations"]) == 5 and len(d["preparations"][0]) == 3
    assert len(d["effects"]) == 4
    assert d["config"] is None  # no qubit realization of a d=3 extremum
    assert d["landscape"] == {
        "W": res.restart_W.tolist(),
        "sweeps": res.restart_sweeps.tolist(),
        "converged": res.restart_converged.tolist(),
    }
    # stored matrix must be the matrix of the stored point
    psi = np.array([[re + 1j * im for re, im in row] for row in d["preparations"]])
    eff = np.array(
        [[[re + 1j * im for re, im in row] for row in m] for m in d["effects"]]
    )
    p = strategy_prob_matrix(StrategyPoint(psi, eff))
    assert np.max(np.abs(p.p - np.array(d["prob_matrix"]))) < 1e-12

    path = tmp_path / "result.json"
    save_search_result(res, problem, path)
    assert json.loads(path.read_text())["best_W"] == res.best_W


def test_qubit_export_round_trips_through_config():
    """A d=2 point with projective effects exports an angle config whose
    predicted matrix matches the point's matrix."""
    cfg = builtin_config("I-second")
    pt = strategy_from_config(cfg)
    res = SearchResult(
        best_W=float(witness(strategy_prob_matrix(pt))),
        best_point=pt,
        restarts=1,
        converged=True,
    )
    d = search_result_to_dict(res, ExtremalProblem(2))
    assert d["config"] is not None
    assert d["landscape"] is None  # built by hand, not by a search
    from qubitcert.configs import config_from_dict

    back = config_from_dict(d["config"])
    assert np.max(
        np.abs(predicted_prob_matrix(back).p - strategy_prob_matrix(pt).p)
    ) < 1e-9


# --- monotonicity -----------------------------------------------------------


def test_witness_grows_with_dimension():
    w2 = abs(maximize_witness(ExtremalProblem(2), restarts=5, seed=0).best_W)
    w3 = maximize_witness(ExtremalProblem(3), restarts=25, seed=0).best_W
    w4 = maximize_witness(ExtremalProblem(4), restarts=40, seed=0).best_W
    assert w2 < 1e-8 < w3 < w4
