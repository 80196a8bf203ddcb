"""Noise channels: invisible ones stay invisible, the coherent leak is seen."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qubitcert import noise
from qubitcert.configs import BUILTIN_IDS, builtin_config, predicted_prob_matrix
from qubitcert.noise import (
    AUDIT_BLOCK_MEMBERS,
    DriftModel,
    apply_common_leakage,
    apply_readout_error,
    audit_drift,
    coherent_leak_prob_matrix,
    drift_bound,
    generate_drift_ensemble,
)
from qubitcert.witness import prob_matrix, witness

from conftest import random_config
from drift_reference import reference_ensemble, reference_worst, worst_pooled


# --- incoherent leakage ----------------------------------------------------


def test_leakage_param_validation():
    p = predicted_prob_matrix(builtin_config("II-0"))
    with pytest.raises(ValueError, match="lambda_prep"):
        apply_common_leakage(p, -0.1, 0.5)
    with pytest.raises(ValueError, match="lambda_prep"):
        apply_common_leakage(p, 1.0, 0.5)
    with pytest.raises(ValueError, match="mu_meas"):
        apply_common_leakage(p, 0.3, 1.5)
    apply_common_leakage(p, 0.0, 0.0)
    apply_common_leakage(p, 0.99, 1.0)


def test_leakage_keeps_builtin_witnesses_zero():
    for cid in BUILTIN_IDS:
        p = predicted_prob_matrix(builtin_config(cid))
        for lam in (0.1, 0.5, 0.9):
            for mu in (0.0, 0.3, 1.0):
                q = apply_common_leakage(p, lam, mu)
                assert abs(witness(q)) < 1e-12


def test_leakage_scales_witness_by_fourth_power(rng):
    for _ in range(20):
        rows = rng.uniform(0.1, 0.9, (4, 5))
        p = prob_matrix(rows)
        lam, mu = rng.uniform(0, 0.8), rng.uniform(0, 1)
        q = apply_common_leakage(p, lam, mu)
        assert abs(witness(q) - (1 - lam) ** 4 * witness(p)) < 1e-12


# --- readout error ---------------------------------------------------------


def test_readout_param_validation():
    with pytest.raises(ValueError):
        apply_readout_error(predicted_prob_matrix(builtin_config("II-0")), 0.6, 0.5)
    with pytest.raises(ValueError):
        apply_readout_error(predicted_prob_matrix(builtin_config("II-0")), -0.1, 0.0)


def test_readout_scales_witness_by_fourth_power(rng):
    for _ in range(20):
        rows = rng.uniform(0.1, 0.9, (4, 5))
        p = prob_matrix(rows)
        e0, e1 = rng.uniform(0, 0.4), rng.uniform(0, 0.4)
        q = apply_readout_error(p, e0, e1)
        assert abs(witness(q) - (1 - e0 - e1) ** 4 * witness(p)) < 1e-12


def test_readout_example():
    rows = np.array(
        [
            [0.9, 0.1, 0.5, 0.3, 0.7],
            [0.2, 0.8, 0.4, 0.6, 0.5],
            [0.5, 0.5, 0.9, 0.1, 0.3],
            [0.3, 0.7, 0.2, 0.8, 0.9],
        ]
    )
    p = prob_matrix(rows)
    q = apply_readout_error(p, 0.1, 0.1)
    assert witness(q) == pytest.approx(0.8**4 * witness(p), abs=1e-14)


def test_channels_commute_on_witness_scale(rng):
    rows = rng.uniform(0.1, 0.9, (4, 5))
    p = prob_matrix(rows)
    a = apply_readout_error(apply_common_leakage(p, 0.2, 0.4), 0.05, 0.1)
    b = apply_common_leakage(apply_readout_error(p, 0.05, 0.1), 0.2, 0.4)
    scale = 0.8**4 * 0.85**4
    assert abs(witness(a) - scale * witness(p)) < 1e-12
    assert abs(witness(b) - scale * witness(p)) < 1e-12


# --- per-job drift ---------------------------------------------------------


def _runs(cfg, model, seed, trials):
    """The ensembles, ``(trials, n_jobs, 5, 5)``, of runs ``seed`` to
    ``seed + trials - 1`` drawn as one block."""
    (ensembles,) = noise._drift_block(
        cfg, model.epsilon, model.n_jobs, (model.perturbation_mode,), seed, trials
    )
    return ensembles


def test_drift_model_validation():
    with pytest.raises(ValueError):
        DriftModel(-0.01, 5)
    with pytest.raises(ValueError):
        DriftModel(0.01, 0)
    with pytest.raises(ValueError):
        DriftModel(0.01, 5, "sideways")


@pytest.mark.parametrize("n_jobs", [2.5, True, 3.0, "3"])
def test_drift_rejects_a_job_count_that_is_no_integer(n_jobs, monkeypatch):
    """A bool or non-integer job count is rejected by the model and by the
    audit alike, before anything is drawn; a numpy integer is a count."""
    monkeypatch.setattr(noise, "offset_seed_words", None)  # any draw would fail
    message = rf"n_jobs must be an integer, got {n_jobs!r}"
    with pytest.raises(ValueError, match=message):
        DriftModel(0.02, n_jobs, "column-mix")
    with pytest.raises(ValueError, match=message):
        audit_drift(builtin_config("II-0"), 0.02, n_jobs, ("angle-jitter",), 0, 3)
    assert DriftModel(0.02, np.int64(3)).n_jobs == 3


@pytest.mark.parametrize(
    "epsilon, n_jobs, mode",
    [(0.02, 4, "sideways"), (-0.01, 4, "column-mix"), (0.02, 0, "column-mix")],
)
def test_audit_drift_rejects_what_the_drift_model_rejects(epsilon, n_jobs, mode, monkeypatch):
    """A bad mode, budget or job count raises the drift model's message, before
    anything is drawn."""
    monkeypatch.setattr(noise, "offset_seed_words", None)  # any draw would fail
    with pytest.raises(ValueError) as model_error:
        DriftModel(epsilon, n_jobs, mode)
    with pytest.raises(ValueError) as audit_error:
        audit_drift(builtin_config("II-0"), epsilon, n_jobs, ("angle-jitter", mode), 0, 3)
    assert str(audit_error.value) == str(model_error.value)
    with pytest.raises(ValueError, match="at least one drift mode"):
        audit_drift(builtin_config("II-0"), 0.02, 4, (), 0, 3)


def test_audit_drift_rejects_a_string_of_modes(monkeypatch):
    """A single mode name passed as ``modes`` is named as such, not read one
    character at a time, before anything is drawn."""
    monkeypatch.setattr(noise, "offset_seed_words", None)  # any draw would fail
    for modes in ("column-mix", ""):
        message = f"^modes must be a sequence of mode names, got the string {modes!r}$"
        with pytest.raises(ValueError, match=message):
            audit_drift(builtin_config("II-0"), 0.02, 3, modes, 0, 2)


@pytest.mark.parametrize("n_jobs", [10, 2])
def test_audit_drift_matches_the_per_trial_reference_in_both_modes(n_jobs):
    """Over a run one block and three trials long, and over one trial (a block
    where a reshaped slice of the draws is a view, not a copy), each mode's
    worst pooled |W| is, to the bit, the one-trial-at-a-time loop's."""
    cfg, eps = builtin_config("II-0"), 0.02
    modes = ("angle-jitter", "column-mix")
    for seed, trials in [(5, AUDIT_BLOCK_MEMBERS // n_jobs + 3), (9, 1)]:
        worst = audit_drift(cfg, eps, n_jobs, modes, seed, trials)
        for mode, mode_worst in zip(modes, worst):
            model = DriftModel(eps, n_jobs, mode)
            assert mode_worst == reference_worst(cfg, model, seed, trials), (mode, trials)


def test_drift_bound_formula():
    assert drift_bound(0.0) == 0.0
    assert drift_bound(0.01) == pytest.approx(80 * math.sqrt(2) * 1e-4)
    with pytest.raises(ValueError):
        drift_bound(-1.0)


def test_zero_epsilon_reproduces_reference():
    cfg = builtin_config("I-second")
    ref = predicted_prob_matrix(cfg)
    ens = generate_drift_ensemble(cfg, DriftModel(0.0, 7), seed=3)
    assert ens.shape == (7, 5, 5)
    for p in ens:
        assert np.array_equal(p, ref)


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
@pytest.mark.parametrize("cid", ["I-second", "II-0"])
def test_drift_members_are_witness_zero_and_within_budget(mode, cid):
    cfg = builtin_config(cid)
    ref = predicted_prob_matrix(cfg)
    eps = 0.02
    ens = _runs(cfg, DriftModel(eps, 12, mode), 42, 3)
    assert ens.shape == (3, 12, 5, 5)
    for p in ens.reshape(-1, 5, 5):
        assert abs(witness(p)) < 1e-10
        assert np.max(np.abs(p - ref)) <= eps + 1e-12
        assert np.all(p[4] == 1.0) and np.all((0.0 <= p) & (p <= 1.0))


def test_drift_is_deterministic():
    cfg = builtin_config("II-1")
    m = DriftModel(0.01, 6, "column-mix")
    a = generate_drift_ensemble(cfg, m, seed=9)
    b = generate_drift_ensemble(cfg, m, seed=9)
    assert np.array_equal(a, b)
    c = generate_drift_ensemble(cfg, m, seed=10)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
def test_drift_trial_depends_only_on_its_own_seed(mode):
    """Trial t of a batch is the one-trial ensemble of seed + t."""
    cfg = builtin_config("II-0")
    m = DriftModel(0.05, 5, mode)
    batch = _runs(cfg, m, 100, 6)
    for t in range(6):
        alone = generate_drift_ensemble(cfg, m, seed=100 + t)
        assert batch[t].tobytes() == alone.tobytes()


def test_drift_ensembles_follow_their_own_key_whatever_the_call_order():
    """Only the reference rows of one config are kept between calls: calls
    that interleave two configs, both modes, and seeds and trial counts that
    repeat an earlier call's each give the one-trial-at-a-time ensembles."""
    calls = [
        ("II-0", "angle-jitter", 30, 4),
        ("II-0", "column-mix", 30, 4),  # the same block in the other mode
        ("I-prime", "column-mix", 30, 4),  # the same block, another config
        ("I-prime", "angle-jitter", 30, 6),  # the same seed, more trials
        ("II-0", "angle-jitter", 31, 6),  # the same trials, another seed
        ("II-0", "column-mix", 30, 4),  # a key repeated after other keys
        ("I-prime", "column-mix", 31, 3),
        ("II-0", "angle-jitter", 30, 4),
    ]
    for cid, mode, seed, trials in calls:
        cfg, model = builtin_config(cid), DriftModel(0.05, 3, mode)
        batch = _runs(cfg, model, seed, trials)
        assert batch.shape == (trials, 3, 5, 5)
        for t in range(trials):
            assert batch[t].tobytes() == reference_ensemble(cfg, model, seed + t).tobytes()


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
def test_drift_of_numpy_integers_is_that_of_python_ints(mode):
    """A numpy integer seed and trial count give the ensembles and the audit of
    their values."""
    cfg, model = builtin_config("II-0"), DriftModel(0.05, 3, mode)
    a = generate_drift_ensemble(cfg, model, np.int64(7))
    assert a.tobytes() == generate_drift_ensemble(cfg, model, 7).tobytes()
    a = _runs(cfg, model, np.int64(7), np.int64(4))
    assert a.tobytes() == _runs(cfg, model, 7, 4).tobytes()
    seed = np.uint64(2**64 - 3)
    a = audit_drift(cfg, 0.05, np.int64(3), (mode,), seed, np.int64(2))
    assert a == audit_drift(cfg, 0.05, 3, (mode,), 2**64 - 3, 2)


def test_drift_needs_a_trial():
    """An audit of no trials raises rather than report a vacuous worst |W|."""
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        audit_drift(builtin_config("II-0"), 0.01, 3, ("angle-jitter", "column-mix"), 0, 0)


@pytest.mark.parametrize("n_jobs", [1, 7, 10])
@pytest.mark.parametrize("eps", [0.0, 0.005, 0.05, 0.2])
@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
@pytest.mark.parametrize("cid", ["II-0", "I-prime"])
def test_batched_drift_matches_per_trial_loop(cid, mode, eps, n_jobs):
    """Every ensemble, and the worst pooled |W|, bit for bit as the one-trial
    loop makes them (I-prime's exact 0s and 1s drive column-mix into its
    shrink-and-fall-back path), also in blocks whose seeds cross a 32-bit
    word boundary (2^32 - 20 .. 2^32 + 19) or need three words (2^64 - 3)."""
    cfg = builtin_config(cid)
    model = DriftModel(eps, n_jobs, mode)
    for seed, trials in [(7, 40), (2**32 - 20, 40), (2**64 - 3, 5)]:
        batch = _runs(cfg, model, seed, trials)
        assert batch.shape == (trials, n_jobs, 5, 5)
        for t in range(trials):
            reference = reference_ensemble(cfg, model, seed + t)
            assert batch[t].tobytes() == reference.tobytes(), seed + t
        worst = float(np.abs(np.linalg.det(batch.mean(axis=1))).max())
        assert worst == reference_worst(cfg, model, seed, trials)


def test_word_zero_gives_numpys_double_and_column_picks():
    """Word 0 of a stream, read raw, gives the unit double numpy's ``random``
    draws from it and, from its low then high half, the two column picks of
    ``integers(0, 5)``."""
    seeds = [*range(1200), 2**32 - 1, 2**64 - 3, 2**100 + 7]
    word0 = np.array([np.random.PCG64(s).random_raw() for s in seeds], dtype=np.uint64)
    units, picks = [], []
    for s in seeds:
        units.append(np.random.default_rng(s).random())
        rng = np.random.default_rng(s)
        picks.append([rng.integers(0, 5), rng.integers(0, 5)])
    assert noise._unit(word0).tobytes() == np.array(units).tobytes()
    halves = np.stack([word0 & 0xFFFFFFFF, word0 >> 32], axis=1)
    assert np.array_equal(noise._picks(halves), picks)


_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _seed_words_starting_with(word0, stream, rot):
    """Seed words, as ``seeding.generators`` reads them, of a PCG64 stream
    whose first raw word is ``word0``: PCG64's seeding and first step run
    backwards from a state whose XSL-RR output is ``word0``."""
    hi = (rot << 58) | (0x2545F4914F6CDD1D & ((1 << 58) - 1))
    xored = ((word0 << rot) | (word0 >> (64 - rot))) & _MASK64  # rotl by rot
    after_step = (hi << 64) | (xored ^ hi)
    inc = ((stream << 1) | 1) & _MASK128
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    start = ((after_step - inc) * inverse) & _MASK128
    seed = ((start - inc) * inverse - inc) & _MASK128
    return [seed >> 64, seed & _MASK64, stream >> 64, stream & _MASK64]


def test_column_mix_replays_a_zero_half_with_the_generator(monkeypatch):
    """A trial whose word 0 has a zero low or high half makes numpy's
    ``integers`` draw again, which shifts the rest of its stream.  Column-mix
    must give what a Generator at that trial's start makes with the old four
    calls, and its replay must leave the draws angle jitter reads intact."""
    seed, trials = 500, 8
    # trial seed: (word 0, PCG64 stream, rotation of the crafted state)
    word0 = {
        501: (0x9E3779B900000000, 12345, 0),  # zero low half
        503: (0x00000000DEADBEEF, 2**100 + 3, 17),  # zero high half
        504: (0, 7, 63),  # both halves zero
        506: (0x0000000100000000, 2**127 + 1, 5),  # zero low half
    }
    crafted = {s: _seed_words_starting_with(*args) for s, args in word0.items()}
    real_words, real_default_rng = noise.offset_seed_words, np.random.default_rng
    replayed = []

    def offset_seed_words(first, count):
        words = real_words(first, count)
        for t in range(count):
            if first + t in crafted:
                words[t] = crafted[first + t]
        return words

    def default_rng(seed):
        # the replay's constructor sees the crafted trials' streams too
        if seed in crafted:
            replayed.append(seed)
            return next(noise.generators(np.array([crafted[seed]], dtype=np.uint64)))
        return real_default_rng(seed)

    for s, (word, _, _) in word0.items():
        rng = next(noise.generators(np.array([crafted[s]], dtype=np.uint64)))
        assert rng.bit_generator.random_raw() == word
    monkeypatch.setattr(noise, "offset_seed_words", offset_seed_words)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    cfg = builtin_config("II-0")
    model = DriftModel(0.05, 3, "column-mix")
    batch = _runs(cfg, model, seed, trials)
    for t, words in enumerate(offset_seed_words(seed, trials)):
        rng = next(noise.generators(words[None]))
        assert batch[t].tobytes() == reference_ensemble(cfg, model, rng).tobytes(), t
    modes = ("angle-jitter", "column-mix")
    worst = audit_drift(cfg, 0.05, 3, modes, seed, trials)
    for mode, mode_worst in zip(modes, worst):
        model = DriftModel(0.05, 3, mode)
        rngs = (next(noise.generators(w[None])) for w in offset_seed_words(seed, trials))
        assert mode_worst == worst_pooled(reference_ensemble(cfg, model, r) for r in rngs)
    assert replayed == sorted(crafted) * 2  # once per column-mix pass


def test_column_mix_moves_the_pooled_witness():
    """The adversarial mode must actually exercise the quadratic loophole:
    pooling the jobs should give |W| > 0 while staying under the bound."""
    cfg = builtin_config("II-0")
    eps = 0.02
    best = 0.0
    ensembles = _runs(cfg, DriftModel(eps, 10, "column-mix"), 0, 25)
    for ens in ensembles:
        pooled = prob_matrix(np.mean([p[:4] for p in ens], axis=0))
        w = abs(witness(pooled))
        assert w <= drift_bound(eps)
        best = max(best, w)
    assert best > 1e-6


def test_pooled_jitter_respects_bound(rng):
    cfg = builtin_config("I-second")
    eps = 0.05
    ensembles = _runs(cfg, DriftModel(eps, 8, "angle-jitter"), 0, 25)
    for ens in ensembles:
        pooled = prob_matrix(np.mean([p[:4] for p in ens], axis=0))
        assert abs(witness(pooled)) <= drift_bound(eps)


# --- coherent leak ---------------------------------------------------------


def _oracle_gate(gamma: float, chi: float) -> np.ndarray:
    """Independent reconstruction: qubit block conjugated by z-phases, then a
    matrix-exponential rotation in the |1>-|2> plane with axis phase gamma."""
    z = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
    s = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)
    u = np.eye(3, dtype=complex)
    u[:2, :2] = z.conj().T @ s @ z
    x12 = np.zeros((3, 3), complex)
    x12[1, 2] = x12[2, 1] = 1.0
    y12 = np.zeros((3, 3), complex)
    y12[1, 2], y12[2, 1] = -1.0j, 1.0j
    leak = expm(-0.5j * chi * (math.cos(gamma) * x12 + math.sin(gamma) * y12))
    return leak @ u


def _oracle_matrix(cfg, chi):
    ket0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    preps = [_oracle_gate(b, chi) @ _oracle_gate(a, chi) @ ket0 for a, b in cfg.preparations]
    bras = [ket0 @ _oracle_gate(t, chi) @ _oracle_gate(f, chi) for t, f in cfg.measurements]
    return np.array([[abs(b @ n) ** 2 for n in preps] for b in bras])


def test_leak_param_validation():
    with pytest.raises(ValueError, match="finite"):
        coherent_leak_prob_matrix(builtin_config("II-0"), float("nan"))


def test_zero_leak_reduces_to_qubit_model(rng):
    for cid in ("I-prime", "II-2"):
        cfg = builtin_config(cid)
        p = coherent_leak_prob_matrix(cfg, 0.0)
        assert np.allclose(p, predicted_prob_matrix(cfg), atol=1e-12)
    cfg = random_config(rng)
    p = coherent_leak_prob_matrix(cfg, 0.0)
    assert np.allclose(p, predicted_prob_matrix(cfg), atol=1e-12)


def test_leak_matches_matrix_exponential_oracle(rng):
    for chi in (0.05, 0.3, 1.1):
        for cfg in (builtin_config("II-0"), random_config(rng)):
            ours = coherent_leak_prob_matrix(cfg, chi)
            assert np.allclose(ours[:4], _oracle_matrix(cfg, chi), atol=1e-12)


def test_leak_witness_regressions():
    cfg = builtin_config("II-0")
    frozen = {
        0.01: 4.418671935717578e-06,
        0.05: 0.00011002041581580402,
        0.1: 0.00043454548993814647,
        0.3: 0.00341483845067273,
    }
    for chi, expected in frozen.items():
        w = witness(coherent_leak_prob_matrix(cfg, chi))
        assert w == pytest.approx(expected, rel=1e-9)


def test_leak_witness_grows_with_angle():
    cfg = builtin_config("II-0")
    values = [
        abs(witness(coherent_leak_prob_matrix(cfg, chi)))
        for chi in (0.01, 0.05, 0.1, 0.3)
    ]
    assert values == sorted(values)


def test_leak_detected_by_every_builtin():
    for cid in BUILTIN_IDS:
        w = witness(
            coherent_leak_prob_matrix(builtin_config(cid), 0.05)
        )
        assert abs(w) > 1e-9, cid
