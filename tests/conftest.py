import math

import numpy as np
import pytest
from hypothesis import strategies as st

import qubitcert.extremal as extremal
from qubitcert.configs import ConfigSet, config_bloch_vectors
from qubitcert.extremal import StrategyPoint

_PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def random_config(rng: np.random.Generator) -> ConfigSet:
    """Uniformly random angle configuration (retrying the rare duplicate)."""
    while True:
        try:
            return ConfigSet(
                id="random",
                preparations=tuple(map(tuple, rng.uniform(0, 2 * np.pi, (5, 2)))),
                measurements=tuple(map(tuple, rng.uniform(0, 2 * np.pi, (4, 2)))),
            )
        except ValueError:
            continue


def _bloch_to_state(n: np.ndarray) -> np.ndarray:
    t = math.acos(min(1.0, max(-1.0, float(n[2]))))
    phase = math.atan2(float(n[1]), float(n[0]))
    return np.array(
        [math.cos(0.5 * t), math.sin(0.5 * t) * np.exp(1j * phase)], dtype=complex
    )


def strategy_from_config(config: ConfigSet) -> StrategyPoint:
    """Hilbert-space (d=2) strategy point equivalent to an angle configuration:
    pure states from the Bloch vectors n, projectors (1 + m . sigma)/2."""
    n, m = config_bloch_vectors(config)
    psi = np.stack([_bloch_to_state(v) for v in n])
    eff = 0.5 * (np.eye(2) + np.einsum("kc,cde->kde", m, _PAULI))
    return StrategyPoint(psi, eff)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_seesaw(monkeypatch):
    """Make any search that reaches the see-saw fail, so a rejected restart
    budget is known to be rejected before anything is allocated."""

    def fail(*args):
        raise AssertionError("the see-saw ran")

    monkeypatch.setattr(extremal, "_seesaw", fail)


# --- JSON document fuzzing ---------------------------------------------------

_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
#: arbitrary JSON values, NaN aside
json_values = _json_leaves | st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _locations(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _locations(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _locations(value, path + (i,))


@st.composite
def json_edits(draw, doc, values):
    """``doc`` after up to two random edits, each deleting one node or
    replacing it (the whole document too) with a draw from ``values``."""
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_locations(doc))))
        if not path:
            doc = draw(values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(values)
    return doc


# --- record documents ----------------------------------------------------------


def record_to_dict(record) -> dict:
    """An ``ExperimentRecord`` as a format-2 record document; the oracle for
    ``save_record``, which must write exactly ``json.dumps`` of it and a
    newline."""
    rows = record.ones.tolist()
    jobs, start = [], 0
    for job_id, shots, reps in zip(
        record.job_ids, record.shots.tolist(), record.reps.tolist()
    ):
        ones = [n for row in rows[start : start + reps] for n in row]
        jobs.append({"job_id": job_id, "shots": shots, "repetitions": reps, "ones": ones})
        start += reps
    out = {"format": 2, "config_id": record.config_id, "device": record.device, "jobs": jobs}
    if record.timestamp is not None:
        out["timestamp"] = record.timestamp
    return out


def record_to_v1_dict(record) -> dict:
    """An ``ExperimentRecord`` as a format-1 record document, as format 1 was
    written: no ``format`` key, and each job's ``counts`` a list of 20
    ``[ones, shots]`` cells per repetition."""
    doc = record_to_dict(record)
    del doc["format"]
    for job in doc["jobs"]:
        ones, shots = job.pop("ones"), job["shots"]
        job["counts"] = [[[n, shots] for n in ones[i : i + 20]] for i in range(0, len(ones), 20)]
    return doc
