"""Built-in gate tables: geometry, witness-zero property, serialization."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitcert.configs import (
    BUILTIN_IDS,
    ETA,
    ConfigSet,
    builtin_config,
    config_bloch_vectors,
    config_from_dict,
    config_to_dict,
    load_config,
    parametric_config,
    predicted_prob_matrix,
    save_config,
)
from qubitcert.witness import witness

from conftest import json_edits, json_values

SQ2, SQ3, SQ6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)


def test_builtin_ids_complete():
    assert BUILTIN_IDS == (
        "I-prime",
        "I-second",
        "II-0",
        "II-1",
        "II-2",
        "II-3",
        "II-4",
    )
    for cid in BUILTIN_IDS:
        assert builtin_config(cid).id == cid


def test_unknown_id_raises_with_listing():
    with pytest.raises(ValueError, match="I-prime"):
        builtin_config("nope")


# --- frozen geometry -------------------------------------------------------


def test_first_family_vectors():
    n, m = config_bloch_vectors(builtin_config("I-prime"))
    expected_n = np.array(
        [
            [0, 0, -1],
            [-SQ3 / 2, 0.5, 0],
            [-SQ3 / 4, -0.25, SQ3 / 2],
            [SQ3 / 4, -0.25, SQ3 / 2],
            [SQ3 / 2, 0.5, 0],
        ]
    )
    assert np.allclose(n, expected_n, atol=1e-12)
    # measurement axes revisit preparations 2..5
    assert np.allclose(m, expected_n[1:], atol=1e-12)


def test_second_family_vectors():
    n, m = config_bloch_vectors(builtin_config("I-second"))
    expected_n = np.array(
        [
            [0, 0, -1],
            [0, 0, 1],
            [2 * SQ2 / 3, 0, 1 / 3],
            [-SQ2 / 3, -SQ6 / 3, 1 / 3],
            [-SQ2 / 3, SQ6 / 3, 1 / 3],
        ]
    )
    expected_m = np.array(
        [
            [0, 0, 1],
            [1, 0, 0],
            [-0.5, -SQ3 / 2, 0],
            [-0.5, SQ3 / 2, 0],
        ]
    )
    assert np.allclose(n, expected_n, atol=1e-12)
    assert np.allclose(m, expected_m, atol=1e-12)
    # south pole plus the three tilted vectors form a regular tetrahedron
    tetra = expected_n[[0, 2, 3, 4]]
    gram = tetra @ tetra.T
    off = gram[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1 / 3, atol=1e-12)


def test_parametric_family_shares_all_but_last_preparation():
    base = builtin_config("I-second")
    for i in range(5):
        cfg = builtin_config(f"II-{i}")
        n, m = config_bloch_vectors(cfg)
        n0, m0 = config_bloch_vectors(base)
        assert np.allclose(m, m0, atol=1e-12)
        assert np.allclose(n[0], n0[0], atol=1e-12)
        assert np.allclose(n[1:4], n0[2:5], atol=1e-12)
        a5 = 2 * math.pi * i / 5
        assert np.allclose(
            n[4], [-math.sin(a5), -math.cos(a5), 0.0], atol=1e-12
        )


def test_parametric_config_arbitrary_parameter():
    cfg = parametric_config(2.5)
    assert cfg.id == "II-2.5"
    n, _ = config_bloch_vectors(cfg)
    a5 = 2 * math.pi * 2.5 / 5
    assert np.allclose(n[4], [-math.sin(a5), -math.cos(a5), 0.0], atol=1e-12)


def test_all_builtin_configs_are_witness_zero():
    for cid in BUILTIN_IDS:
        p = predicted_prob_matrix(builtin_config(cid))
        assert abs(witness(p)) < 1e-12, cid


def test_eta_value():
    assert ETA == math.acos(1.0 / 3.0)


# --- construction guards ---------------------------------------------------


def test_duplicate_preparations_rejected():
    prep = [(0.0, 0.0)] * 5
    meas = [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
    coinciding = r"preparations\[{}\] and preparations\[{}\] have coinciding Bloch vectors"
    with pytest.raises(ValueError, match=coinciding.format(0, 1)):
        ConfigSet(id="dup", preparations=tuple(prep), measurements=tuple(meas))
    # alpha == beta always prepares the south pole, however the angles differ
    with pytest.raises(ValueError, match=coinciding.format(0, 1)):
        ConfigSet(
            id="dup2",
            preparations=((1.0, 1.0), (2.0, 2.0), (0.5, 1.5), (1.5, 2.5), (2.5, 3.5)),
            measurements=tuple(meas),
        )
    # indices count from 0, as in the field names of config_from_dict's errors
    doc = {
        "id": "dup3",
        "preparations": [[0, 0], [0.7, 0.1], [1.4, 0.2], [2.1, 0.3], [1.4, 0.2]],
        "measurements": [list(m) for m in meas],
    }
    with pytest.raises(ValueError, match=coinciding.format(2, 4)):
        config_from_dict(doc)


def test_angles_stored_reduced():
    cfg = ConfigSet(
        id="x",
        preparations=(
            (0.0, -1.0),
            (2 * math.pi + 0.25, 0.5),
            (1.0, 2.1),
            (2.0, 3.9),
            (3.0, 5.2),
        ),
        measurements=((0.5, 0.6), (1.5, 1.9), (2.5, 2.8), (3.5, 3.9)),
    )
    assert cfg.preparations[0][1] == pytest.approx(2 * math.pi - 1.0)
    assert cfg.preparations[1][0] == pytest.approx(0.25)


def test_shape_guards():
    with pytest.raises(ValueError):
        ConfigSet(id="x", preparations=((0, 0),) * 4, measurements=((1, 1), (2, 2), (3, 3), (4, 4)))
    with pytest.raises(ValueError):
        ConfigSet(id="x", preparations=((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)), measurements=((1, 1),) * 3)


# --- serialization ---------------------------------------------------------


def test_json_round_trip(tmp_path):
    for cid in ("I-prime", "II-3"):
        cfg = builtin_config(cid)
        path = tmp_path / f"{cid}.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg


def test_dict_round_trip_preserves_floats():
    cfg = parametric_config(1.75)
    d = config_to_dict(cfg)
    assert d["id"] == "II-1.75"
    assert config_from_dict(json.loads(json.dumps(d))) == cfg


def test_from_dict_error_paths(tmp_path):
    good = config_to_dict(builtin_config("I-prime"))

    bad = dict(good)
    del bad["measurements"]
    with pytest.raises(ValueError, match="measurements"):
        config_from_dict(bad)

    bad = dict(good)
    bad["preparations"] = [[0.0, 0.0]] * 4
    with pytest.raises(ValueError, match="preparations"):
        config_from_dict(bad)

    bad = dict(good)
    bad["id"] = 7
    with pytest.raises(ValueError, match="^id must be a string"):
        config_from_dict(bad)

    bad = dict(good)
    bad["preparations"] = [p[:1] for p in good["preparations"]]
    with pytest.raises(ValueError):
        config_from_dict(bad)

    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ValueError):
        load_config(p)


@pytest.mark.parametrize(
    "value",
    ["1.5", True, False, None, [0.5], float("nan"), float("inf"), 10**400],
    ids=["string", "true", "false", "null", "list", "nan", "inf", "huge-int"],
)
def test_from_dict_rejects_non_angles_naming_the_field(value):
    doc = config_to_dict(builtin_config("II-0"))
    doc["preparations"][2][0] = value
    with pytest.raises(ValueError, match=r"^preparations\[2\]\[0\] must be"):
        config_from_dict(doc)
    doc = config_to_dict(builtin_config("II-0"))
    doc["measurements"][3][1] = value
    with pytest.raises(ValueError, match=r"^measurements\[3\]\[1\] must be"):
        config_from_dict(doc)


def test_from_dict_accepts_integer_angles():
    doc = config_to_dict(builtin_config("I-prime"))
    doc["preparations"][0] = [0, 0]
    assert config_from_dict(doc) == builtin_config("I-prime")


def _is_angle(x) -> bool:
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _config_doc_is_valid(doc) -> bool:
    """The config schema stated in plain Python, as the fuzz test's oracle."""
    if type(doc) is not dict or type(doc.get("id")) is not str:
        return False
    for key, count in (("preparations", 5), ("measurements", 4)):
        pairs = doc.get(key)
        if type(pairs) is not list or len(pairs) != count:
            return False
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2 or not all(map(_is_angle, pair)):
                return False
    return True


# what a rejection names: the document, a missing key, or the offending field
_FIELD_ERROR = (
    r"^(config file must contain a JSON object"
    r"|config file missing required key '(id|preparations|measurements)'"
    r"|id must be a string"
    r"|(preparations|measurements)(\[\d\]){0,2} must be )"
)


@st.composite
def _config_documents(draw):
    doc = config_to_dict(builtin_config(draw(st.sampled_from(BUILTIN_IDS))))
    values = json_values | st.just(math.nan) | st.just(10**400) | st.just("1.5")
    return draw(json_edits(doc, values))


@settings(max_examples=400, deadline=None)
@given(_config_documents())
def test_config_from_dict_accepts_exactly_the_valid_documents(doc):
    """Every malformed document raises ValueError naming a field; a valid one
    is parsed to its angles, unless two preparations coincide."""
    if _config_doc_is_valid(doc):
        try:
            cfg = config_from_dict(doc)
        except ValueError as exc:
            assert "coinciding Bloch vectors" in str(exc)
            return
        preps, meas = (tuple(map(tuple, doc[k])) for k in ("preparations", "measurements"))
        assert cfg == ConfigSet(doc["id"], preps, meas)
    else:
        with pytest.raises(ValueError, match=_FIELD_ERROR):
            config_from_dict(doc)
