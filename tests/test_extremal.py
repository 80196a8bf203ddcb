"""Extremal witness search: see-saw ascent, exact classical maximum, export."""

import json
import math

import numpy as np
import pytest
import sympy

import qubitcert.extremal as extremal
from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.extremal import (
    DEFAULT_RESTARTS,
    KNOWN_MAXIMA,
    MAX_RESTARTS,
    _SWEEPS,
    _TOL,
    _seesaw,
    _starts,
    SearchResult,
    StrategyPoint,
    maximize_witness,
    save_search_result,
    search_result_to_dict,
    strategy_prob_matrix,
)
from qubitcert.witness import adjugate, witness

from classical_reference import classical_max_detail
from conftest import random_config, strategy_from_config

D3_REAL_MAX = 27.0 * math.sqrt(2.0) / 64.0
D3_COMPLEX_MAX = 0.631920101756  # numerical, no known closed form
D4_MAX = 2.0**12 / 3.0**7


# --- containers ------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError, match="d must be"):
        maximize_witness(5, "complex", restarts=1)
    with pytest.raises(ValueError, match="field must be"):
        maximize_witness(3, "rational", restarts=1)


@pytest.mark.parametrize("d", [-1, 0, 1, 5, np.int64(1)], ids=repr)
def test_every_integer_outside_two_to_four_is_no_dim(d):
    with pytest.raises(ValueError, match=f"^d must be .*, got {int(d)}$"):
        maximize_witness(d, "real", restarts=1)


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
    with pytest.raises(ValueError, match=r"effects must be 4 x 3 x 3, got \(3, 3, 3\)"):
        StrategyPoint(psi, effects[:3])


def test_search_result_rejects_impossible_witness(rng):
    pt = strategy_from_config(builtin_config("I-second"))
    with pytest.raises(ValueError):
        SearchResult(
            best_point=pt,
            field="complex",
            restart_W=np.array([0.5, 3.5]),
            restart_sweeps=np.array([4, 1]),
            restart_converged=np.array([True, True]),
        )


def test_search_result_reads_its_summary_from_the_landscape():
    res = maximize_witness(3, "real", restarts=12, seed=1)
    assert res.restarts == 12
    assert res.converged is bool(res.restart_converged[np.argmax(res.restart_W)])


# --- representation equivalence --------------------------------------------


def test_config_and_hilbert_representations_agree(rng):
    for cfg in [builtin_config(c) for c in ("I-prime", "I-second", "II-3")] + [
        random_config(rng) for _ in range(5)
    ]:
        pt = strategy_from_config(cfg)
        assert pt.d == 2
        a = strategy_prob_matrix(pt)
        b = predicted_prob_matrix(cfg)
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
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert np.array_equal(p[4], np.ones(5))
    # spot-check one cell against the quadratic form
    want = float((psi[2].conj() @ effects[1] @ psi[2]).real)
    assert p[1, 2] == pytest.approx(want, abs=1e-12)


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
        res = maximize_witness(2, field, restarts=10, seed=0)
        assert abs(res.best_W) < 1e-8
        assert res.restarts == 10


def test_every_qubit_restart_converges_to_zero():
    """Not just the best: single-restart runs from many seeds must all land
    below 1e-8 — a strong regression on the parametrization itself."""
    for seed in range(8):
        res = maximize_witness(2, "complex", restarts=1, seed=seed)
        assert abs(res.best_W) < 1e-8, seed


def test_d3_real_search_regression():
    res = maximize_witness(3, "real", restarts=20, seed=0)
    assert res.best_W == pytest.approx(D3_REAL_MAX, abs=1e-9)
    assert res.converged


def test_d3_complex_search_regression():
    res = maximize_witness(3, "complex", restarts=40, seed=0)
    assert res.best_W == pytest.approx(D3_COMPLEX_MAX, abs=1e-8)
    assert res.best_W > D3_REAL_MAX + 0.03  # complex strictly beats real in d=3


def test_d4_search_regression():
    res = maximize_witness(4, "complex", restarts=60, seed=0)
    assert res.best_W == pytest.approx(D4_MAX, abs=1e-9)


def test_known_landscapes():
    """Where every restart of two small searches ends: the basins and how
    many restarts reach each.  A change to the sweep's arithmetic may move a
    restart's W in its last digits, but not which optimum it reaches."""

    def basins(res, values):
        return [int(np.sum(np.abs(res.restart_W - v) < 1e-6)) for v in values]

    d3 = maximize_witness(3, "complex", restarts=50, seed=0)
    assert basins(d3, (D3_COMPLEX_MAX, 0.6294065, D3_REAL_MAX)) == [21, 22, 7]
    d4 = maximize_witness(4, "real", restarts=48, seed=0)
    assert basins(d4, (D4_MAX, 1.5974026)) == [31, 17]


def test_search_is_deterministic():
    a = maximize_witness(3, "real", restarts=3, seed=12)
    b = maximize_witness(3, "real", restarts=3, seed=12)
    assert a.best_W == b.best_W
    assert np.array_equal(a.best_point.preparations, b.best_point.preparations)


def test_search_point_reproduces_reported_witness():
    res = maximize_witness(3, "real", restarts=10, seed=1)
    w = witness(strategy_prob_matrix(res.best_point))
    assert w == pytest.approx(res.best_W, abs=1e-9)


def _random_point(d, field, rng):
    """A restart's start as the search drew it before ``_starts``: one
    generator call per array, each vector normalised on its own."""

    def rvec(shape):
        v = rng.standard_normal(shape)
        return v + 1j * rng.standard_normal(shape) if field == "complex" else v

    psi = rvec((5, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    effects = np.empty((4, d, d), dtype=psi.dtype)
    for k in range(4):
        v = rvec(d)
        v /= np.linalg.norm(v)
        effects[k] = np.outer(v, v.conj())
    return psi, effects


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_starts_are_one_draw_per_restart(d, field):
    """Restart r's states are the bits ``_random_point`` draws from the
    generator spawned as (seed, r), its projectors agree to round-off (the
    two normalise a vector by differently ordered sums), and neither depends
    on how many restarts are drawn; also for a seed of more than one 32-bit
    word."""
    dtype = np.complex128 if field == "complex" else np.float64
    for seed in (4, 2**32 + 3):
        psis, effs = _starts(d, field, seed, 9)
        assert psis.shape == (9, 5, d) and effs.shape == (9, 4, d, d)
        assert psis.dtype == effs.dtype == dtype
        few = _starts(d, field, seed, 3)
        for r in range(9):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            psi, effects = _random_point(d, field, rng)
            assert psis[r].tobytes() == psi.tobytes(), (seed, r)
            assert np.max(np.abs(effs[r] - effects)) <= 1e-15, (seed, r)
            if r < 3:
                assert few[0][r].tobytes() == psis[r].tobytes(), (seed, r)
                assert few[1][r].tobytes() == effs[r].tobytes(), (seed, r)


def _one_restart_reference(psi, effects):
    """The see-saw run on one restart from the given start: (final W, sweeps,
    converged)."""

    def rows(ps, ef):
        return np.einsum("jd,kde,je->kj", ps.conj(), ef, ps).real

    p = np.vstack([rows(psi, effects), np.ones(5)])
    w = float(np.linalg.det(p))
    for n in range(1, _SWEEPS + 1):
        w_start = w
        for k in range(4):
            cof = adjugate(p).T
            g = (psi * cof[k][:, None]).T @ psi.conj()
            lam, v = np.linalg.eigh(g)
            keep = v * (lam > 0.0)
            effects[k] = keep @ v.conj().T
            p[k] = ((psi.conj() @ effects[k]) * psi).sum(-1).real
        for j in range(5):
            cof = adjugate(p).T
            h = np.einsum("k,kde->de", cof[:4, j], effects)
            lam, v = np.linalg.eigh(h)
            psi[j] = v[:, -1]
            p[:4, j] = rows(psi[j : j + 1], effects)[:, 0]
        w = float(np.linalg.det(p))
        if abs(w - w_start) < _TOL:
            return w, n, True
    return w, _SWEEPS, False


@pytest.mark.parametrize("problem", [(3, "complex"), (4, "real")])
def test_batched_restarts_match_one_at_a_time(problem):
    d, field = problem
    _, _, ws, n_sweeps, convs = _seesaw(d, field, 7, 6, _SWEEPS)
    psis, effs = _starts(d, field, 7, 6)
    for r in range(6):
        got = (ws[r], n_sweeps[r], convs[r])
        assert got == _one_restart_reference(psis[r].copy(), effs[r].copy()), r


def test_restart_results_do_not_depend_on_batch_size():
    """Restart r ends at the same bits whether 12 or 40 restarts ascend
    beside it."""
    few, many = (_seesaw(3, "complex", 5, n, _SWEEPS)[2:] for n in (12, 40))
    assert len(few[0]) == 12 and len(many[0]) == 40
    for key, a, b in zip(("W", "sweeps", "converged"), few, many):
        assert a.tolist() == b[:12].tolist(), key


def test_landscape_describes_every_restart():
    _, _, ws, n_sweeps, convs = _seesaw(3, "real", 0, 6, 40)
    assert ws.shape == n_sweeps.shape == (6,)
    assert convs.dtype == bool
    assert np.all((n_sweeps >= 1) & (n_sweeps <= 40))
    # a restart that stopped short of the cap did so because it converged
    assert np.all(convs | (n_sweeps == 40))
    res = maximize_witness(3, "real", restarts=6, seed=0)
    assert np.max(res.restart_W) <= res.best_W + 1e-12


def test_sweep_routes_its_cofactors_through_the_module_adjugate(monkeypatch):
    """The benchmark tracer wraps ``qubitcert.extremal.adjugate``, so every
    cofactor the see-saw reads must come through that name: per sweep of the
    longest restart, one column for each effect update and one row for each
    preparation update."""
    plain = maximize_witness(3, "real", restarts=4, seed=0)
    calls = []

    def counting(p, entries=...):
        calls.append(entries)
        return adjugate(p, entries)

    monkeypatch.setattr(extremal, "adjugate", counting)
    res = maximize_witness(3, "real", restarts=4, seed=0)
    per_sweep = [(slice(None), k) for k in range(4)] + [(j, slice(0, 4)) for j in range(5)]
    assert calls == per_sweep * int(res.restart_sweeps.max())
    assert res.best_W == plain.best_W
    for name in ("restart_W", "restart_sweeps", "restart_converged"):
        assert getattr(res, name).tobytes() == getattr(plain, name).tobytes(), name
    for name in ("preparations", "effects"):
        a, b = getattr(res.best_point, name), getattr(plain.best_point, name)
        assert a.tobytes() == b.tobytes(), name


def test_restart_validation(no_seesaw):
    with pytest.raises(ValueError):
        maximize_witness(2, "complex", restarts=0)
    with pytest.raises(ValueError, match=f"{MAX_RESTARTS + 1} .*{MAX_RESTARTS}"):
        maximize_witness(4, "complex", restarts=MAX_RESTARTS + 1)
    for kwargs, name in [
        ({"restarts": True}, "restarts"),
        ({"restarts": np.bool_(True)}, "restarts"),
        ({"restarts": 2.5}, "restarts"),
        ({"restarts": 2.0}, "restarts"),
        ({"restarts": "2"}, "restarts"),
        ({"restarts": 2, "seed": 1.5}, "seed"),
        ({"restarts": 2, "seed": True}, "seed"),
        ({"restarts": 2, "seed": None}, "seed"),
        ({"restarts": 2, "seed": -1}, "seed"),
        ({"restarts": 2, "seed": np.int64(-3)}, "seed"),
    ]:
        with pytest.raises(ValueError, match=name):
            maximize_witness(3, "real", **kwargs)
    # numpy integers pass the checks and reach the see-saw
    with pytest.raises(AssertionError, match="see-saw ran"):
        maximize_witness(3, "real", restarts=np.int64(2), seed=np.uint8(1))


def test_numpy_integer_counts_search_as_python_ints():
    """A numpy restart count and seed give the search of their values."""
    a = maximize_witness(3, "real", restarts=np.int64(2), seed=np.uint8(1))
    b = maximize_witness(3, "real", restarts=2, seed=1)
    assert a.best_W == b.best_W
    assert a.restart_W.tobytes() == b.restart_W.tobytes()
    assert a.best_point.preparations.tobytes() == b.best_point.preparations.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_best_W_is_the_winning_restarts_W(d, field):
    res = maximize_witness(d, field, restarts=10, seed=0)
    assert res.best_W in res.restart_W.tolist()
    assert res.best_W >= res.restart_W.max() - 1e-15


def test_best_W_is_the_first_maximum_of_the_landscape():
    res = maximize_witness(3, "real", restarts=12, seed=0)
    assert res.best_W == res.restart_W.max()
    win = res.restart_W.tolist().index(res.best_W)
    psis, effs = _seesaw(3, "real", 0, 12, _SWEEPS)[:2]
    assert np.array_equal(res.best_point.preparations, psis[win])
    assert np.array_equal(res.best_point.effects, effs[win])


def test_exact_ties_go_to_the_lowest_restart_index(monkeypatch):
    seesaw = extremal._seesaw

    def tied(*args):
        psis, effs, ws, n_sweeps, convs = seesaw(*args)
        ws = np.array([0.1, 0.5, 0.2, 0.5])
        return psis, effs, ws, n_sweeps, convs

    monkeypatch.setattr(extremal, "_seesaw", tied)
    res = maximize_witness(3, "complex", restarts=4, seed=3)
    assert res.best_W == 0.5
    psis, effs = seesaw(3, "complex", 3, 4, _SWEEPS)[:2]
    assert np.array_equal(res.best_point.preparations, psis[1])
    assert np.array_equal(res.best_point.effects, effs[1])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_real_searches_run_in_real_arithmetic(d):
    psis, effs = _seesaw(d, "real", 0, 4, 40)[:2]
    assert psis.dtype == effs.dtype == np.float64
    point = maximize_witness(d, "real", restarts=4, seed=0).best_point
    assert not point.preparations.imag.any()
    assert not point.effects.imag.any()
    psis, effs = _seesaw(d, "complex", 0, 4, 40)[:2]
    assert psis.dtype == effs.dtype == np.complex128


def test_default_restart_budgets():
    assert DEFAULT_RESTARTS == {2: 50, 3: 200, 4: 500}


def test_known_maxima_table():
    assert list(KNOWN_MAXIMA) == [(d, f) for d in (2, 3, 4) for f in ("real", "complex")]
    values = {key: value for key, (_, value) in KNOWN_MAXIMA.items()}
    assert values == {
        (2, "real"): 0.0,
        (2, "complex"): 0.0,
        (3, "real"): D3_REAL_MAX,
        (3, "complex"): None,
        (4, "real"): D4_MAX,
        (4, "complex"): D4_MAX,
    }


# --- export -----------------------------------------------------------------


def test_export_structure_and_consistency(tmp_path):
    res = maximize_witness(3, "real", restarts=10, seed=2)
    d = search_result_to_dict(res)
    assert d["problem"] == {"d": 3, "field": "real"}
    assert d["best_W"] == res.best_W
    assert d["converged"] is res.converged
    assert len(d["preparations"]) == 5 and len(d["preparations"][0]) == 3
    assert len(d["effects"]) == 4
    assert "config" not in d
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
    assert np.max(np.abs(p - np.array(d["prob_matrix"]))) < 1e-12

    path = tmp_path / "result.json"
    save_search_result(res, path)
    assert json.loads(path.read_text())["best_W"] == res.best_W


# --- monotonicity -----------------------------------------------------------


def test_witness_grows_with_dimension():
    w2 = abs(maximize_witness(2, "complex", restarts=5, seed=0).best_W)
    w3 = maximize_witness(3, "complex", restarts=25, seed=0).best_W
    w4 = maximize_witness(4, "complex", restarts=40, seed=0).best_W
    assert w2 < 1e-8 < w3 < w4
