"""The batched seeding gives exactly the starting states of numpy's own
constructors, for both seedings, at seeds on either side of word boundaries."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitcert import seeding
from qubitcert.bloch import reduce_angle
from qubitcert.configs import (
    ConfigSet,
    builtin_config,
    config_from_dict,
    config_to_dict,
    parametric_config,
    predicted_prob_matrix,
)
from qubitcert.extremal import maximize_witness
from qubitcert.noise import (
    DriftModel,
    apply_common_leakage,
    apply_readout_error,
    audit_drift,
    coherent_leak_prob_matrix,
    drift_bound,
    generate_drift_ensemble,
)
from qubitcert.sampling import estimator_bias_study, simulate_record
from qubitcert.seeding import generators, offset_seed_words, spawned_seed_words

#: small seeds; blocks crossing 2^32 and 2^64 (one word to two, two to
#: three); 2^96 - 3 (four words); and seeds of more than four words, whose
#: extra words SeedSequence mixes in after its pool (2^128 - 4 crosses from
#: four words to five, 2^160 - 3 from five to six, 2^160 + 5 has six)
SEEDS = [
    0, 1, 7, 2**32 - 20, 2**32, 2**64 - 5, 2**64, 2**96 - 3,
    2**128 - 4, 2**128, 2**160 - 3, 2**160 + 5, 12345678901234,
]


def _offset(seed, t):
    return np.random.PCG64(seed + t)


def _spawned(seed, t):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,)))


def _states(words):
    return [rng.bit_generator.state for rng in generators(words)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "words, numpy_bit_gen",
    [(offset_seed_words, _offset), (spawned_seed_words, _spawned)],
    ids=["offset", "spawned"],
)
def test_states_match_numpy(seed, words, numpy_bit_gen):
    count = 40
    states = _states(words(seed, count))
    assert states == [numpy_bit_gen(seed, t).state for t in range(count)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**140 - 1), st.integers(1, 6))
def test_states_match_numpy_at_any_seed(seed, count):
    for words, numpy_bit_gen in [(offset_seed_words, _offset), (spawned_seed_words, _spawned)]:
        states = _states(words(seed, count))
        assert states == [numpy_bit_gen(seed, t).state for t in range(count)]


@pytest.mark.parametrize("seed", [7, 2**130 + 9])
def test_spawn_keys_of_two_words_match_numpy(seed):
    """Job indices from 2^32 on take two words of spawn key.  No run is large
    enough to reach them, so the entropy is built here as numpy lays it out,
    one column per run: the seed's words padded to four, then the key's."""
    keys = [2**32 - 2, 2**32 - 1, 2**32, 2**32 + 5, 2**40]
    run = max(4, -(-seed.bit_length() // 32))
    rows = [
        [(value >> (32 * i)) & 0xFFFFFFFF for i in range(run + 2)]
        for value in (seed + (key << (32 * run)) for key in keys)
    ]
    lengths = np.array([run + (2 if key >= 2**32 else 1) for key in keys])
    words = seeding._seed_words(np.array(rows, dtype=np.uint32).T, lengths)
    assert _states(words) == [_spawned(seed, key).state for key in keys]


def test_every_run_keeps_its_own_generator():
    """Every Generator of one call stays at its run's stream when all are
    taken first and drawn from in reverse order."""
    rngs = list(generators(offset_seed_words(40, 5)))
    for t in reversed(range(5)):
        expected = np.random.default_rng(40 + t)
        assert rngs[t].random(7).tobytes() == expected.random(7).tobytes()


def test_any_layout_of_seed_words_gives_numpys_states():
    """numpy reads the seed words by raw pointer, so a Fortran-ordered or
    strided array must still hand over each run's own four words."""
    words = spawned_seed_words(3, 6)
    expected = [_spawned(3, t).state for t in range(6)]
    assert _states(np.asfortranarray(words)) == expected
    strided = np.repeat(words, 2, axis=0)[::2]
    assert not strided.flags.c_contiguous
    assert _states(strided) == expected


def test_the_seed_words_answer_only_pcg64s_request():
    """A run's words serve only PCG64's ``generate_state(4, np.uint64)``;
    any other request raises, as do seed words that are not rows of four."""
    rng = next(generators(offset_seed_words(9, 1)))
    seed_seq = rng.bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).tobytes() == offset_seed_words(9, 1).tobytes()
    for n_words, dtype in [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)]:
        with pytest.raises(ValueError, match="4 uint64 seed words"):
            seed_seq.generate_state(n_words, dtype)
    for bad in (np.zeros((2, 3), np.uint64), np.zeros(5, np.uint64)):
        with pytest.raises(ValueError, match="reshape"):
            next(generators(bad))


def test_a_run_draws_numpys_stream():
    """The generator set to a run's state draws what numpy's seeded one does."""
    for rng, t in zip(generators(spawned_seed_words(11, 3)), range(3)):
        expected = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(t,)))
        assert rng.random(5).tobytes() == expected.random(5).tobytes()


@pytest.mark.parametrize("words", [offset_seed_words, spawned_seed_words])
def test_numpy_integers_give_the_words_of_python_ints(words):
    """A numpy integer seed or count is taken as its value: a uint8 seed near
    its top does not wrap when the run index is added."""
    for seed, count in [(np.int64(5), np.int64(7)), (np.uint8(250), np.uint8(10))]:
        expected = words(int(seed), int(count))
        assert words(seed, count).tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        words(np.int64(-1), 3)


def test_no_runs_and_bad_arguments():
    assert offset_seed_words(5, 0).shape == spawned_seed_words(5, 0).shape == (0, 4)
    assert list(generators(offset_seed_words(5, 0))) == []
    for words in (offset_seed_words, spawned_seed_words):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            words(-1, 3)
        with pytest.raises(ValueError, match="count must be >= 0"):
            words(1, -3)


_II0 = builtin_config("II-0")
_P = predicted_prob_matrix(_II0)
_MODEL = DriftModel(0.02, 3)
_MODES = ("angle-jitter", "column-mix")

#: every count and seed argument of the public calls: (call, argument, the
#: call with the argument set to v and every other argument valid)
ARGUMENTS = [
    ("simulate_record", "n_jobs", lambda v: simulate_record(_P, v, 10, 1)),
    ("simulate_record", "shots", lambda v: simulate_record(_P, 2, v, 1)),
    ("simulate_record", "repetitions", lambda v: simulate_record(_P, 2, 10, v)),
    ("simulate_record", "seed", lambda v: simulate_record(_P, 2, 10, 1, v)),
    ("estimator_bias_study", "n_jobs", lambda v: estimator_bias_study(_P, v, [10], 3)),
    ("estimator_bias_study", "shots", lambda v: estimator_bias_study(_P, 2, [10, v], 3)),
    ("estimator_bias_study", "replications", lambda v: estimator_bias_study(_P, 2, [10], v)),
    ("estimator_bias_study", "seed", lambda v: estimator_bias_study(_P, 2, [10], 3, v)),
    ("maximize_witness", "restarts", lambda v: maximize_witness(3, "real", v)),
    ("maximize_witness", "seed", lambda v: maximize_witness(3, "real", 2, v)),
    ("DriftModel", "n_jobs", lambda v: DriftModel(0.02, v)),
    ("generate_drift_ensemble", "seed", lambda v: generate_drift_ensemble(_II0, _MODEL, v)),
    ("audit_drift", "n_jobs", lambda v: audit_drift(_II0, 0.02, v, _MODES, 0, 3)),
    ("audit_drift", "seed", lambda v: audit_drift(_II0, 0.02, 3, _MODES, v, 3)),
    ("audit_drift", "trials", lambda v: audit_drift(_II0, 0.02, 3, _MODES, 0, v)),
    ("offset_seed_words", "seed", lambda v: offset_seed_words(v, 3)),
    ("offset_seed_words", "count", lambda v: offset_seed_words(0, v)),
    ("spawned_seed_words", "seed", lambda v: spawned_seed_words(v, 3)),
    ("spawned_seed_words", "count", lambda v: spawned_seed_words(0, v)),
]


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "2"], ids=repr)
@pytest.mark.parametrize(
    "name, call", [pytest.param(n, c, id=f"{f}-{n}") for f, n, c in ARGUMENTS]
)
def test_every_count_and_seed_argument_takes_only_integers(monkeypatch, name, call, value):
    """A bool, a float or a string is no count or seed anywhere: each call
    names the argument, with one message, before anything is drawn."""
    for attr in ("default_rng", "Generator"):
        monkeypatch.setattr(
            np.random, attr, lambda *a, **k: pytest.fail("drew before the check")
        )
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def _with_first_angle(v):
    """II-0's config document with its first preparation's alpha set to v."""
    doc = config_to_dict(_II0)
    doc["preparations"][0][0] = v
    return doc


#: every real argument of the public calls: (call, argument, the call with the
#: argument set to v and every other argument valid, a valid float and a
#: valid integer value of the argument)
REAL_ARGUMENTS = [
    ("DriftModel", "epsilon", lambda v: DriftModel(v, 3), 0.02, 1),
    ("generate_drift_ensemble", "epsilon",
     lambda v: generate_drift_ensemble(_II0, DriftModel(v, 3, "column-mix"), 5), 0.02, 1),
    ("audit_drift", "epsilon", lambda v: audit_drift(_II0, v, 3, _MODES, 0, 3), 0.02, 1),
    ("drift_bound", "epsilon", drift_bound, 0.02, 2),
    ("apply_common_leakage", "lambda_prep", lambda v: apply_common_leakage(_P, v, 0.5), 0.1, 0),
    ("apply_common_leakage", "mu_meas", lambda v: apply_common_leakage(_P, 0.1, v), 0.5, 1),
    ("apply_readout_error", "e0", lambda v: apply_readout_error(_P, v, 0.1), 0.05, 0),
    ("apply_readout_error", "e1", lambda v: apply_readout_error(_P, 0.05, v), 0.1, 0),
    ("coherent_leak_prob_matrix", "leak_angle", lambda v: coherent_leak_prob_matrix(_II0, v),
     0.3, 2),
    ("reduce_angle", "angle", reduce_angle, -0.5, -7),
    (
        "ConfigSet", "angle",
        lambda v: ConfigSet("x", ((v, 0.0),) + _II0.preparations[1:], _II0.measurements),
        0.3, 1,
    ),
    ("parametric_config", "i", parametric_config, 2.5, 3),
    ("config_from_dict", "preparations[0][0]", lambda v: config_from_dict(_with_first_angle(v)),
     0.3, 1),
]


@pytest.mark.parametrize(
    "value", [True, np.bool_(True), "0.1", None, np.nan, np.inf, 10**400],
    ids=["True", "np.bool_", "str", "None", "nan", "inf", "10**400"],
)
@pytest.mark.parametrize(
    "name, call", [pytest.param(n, c, id=f"{f}-{n}") for f, n, c, _, _ in REAL_ARGUMENTS]
)
def test_every_real_argument_takes_only_finite_reals(monkeypatch, name, call, value):
    """A bool, a string, None, NaN, an infinity or an int beyond the largest
    float is no real argument anywhere: each call names the argument, with one
    message, before anything is drawn."""
    for attr in ("default_rng", "Generator"):
        monkeypatch.setattr(
            np.random, attr, lambda *a, **k: pytest.fail("drew before the check")
        )
    message = f"^{re.escape(name)} must be a finite real number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def _bits(result):
    """A result in a form that differs whenever its bits or its type do."""
    return result.tobytes() if isinstance(result, np.ndarray) else repr(result)


@pytest.mark.parametrize(
    "call, real, integer",
    [pytest.param(c, r, i, id=f"{f}-{n}") for f, n, c, r, i in REAL_ARGUMENTS],
)
def test_numpy_reals_give_the_results_of_python_floats(call, real, integer):
    """An np.float64 or np.int64 real argument is taken as the Python float of
    its value: every result is bit-identical, down to the Python float type of
    a returned number."""
    assert _bits(call(np.float64(real))) == _bits(call(real))
    assert _bits(call(np.int64(integer))) == _bits(call(float(integer)))
    assert _bits(call(integer)) == _bits(call(float(integer)))
