"""Built-in witness configurations and the angle -> probability-matrix map.

A configuration is five preparation angle pairs (alpha, beta) and four
measurement angle pairs (theta, phi).  Three families ship with the toolkit:

* ``I-prime`` — first preparation at the south pole, the other four spread on
  two circles; each measurement direction coincides with one of preparations
  2..5, so the predicted matrix contains exact 1s.
* ``I-second`` — both poles plus three vectors of a regular tetrahedron tilted
  by eta = arccos(1/3); measurements along +z, +x and two in-plane directions.
* ``II-i`` (i = 0..4) — the first four preparations and all measurements of
  ``I-second`` (dropping the north-pole preparation), with a fifth equatorial
  preparation at alpha_5 = 2*pi*i/5, beta_5 = alpha_5 + pi/2, whose Bloch
  vector is (-sin(alpha_5), -cos(alpha_5), 0).  ``parametric_config`` extends
  the family to arbitrary real i.

All predicted matrices have witness exactly zero (single-qubit realizability);
they exist to quantify how far real data drifts from that null.

The per-config docstrings record the derived Bloch vectors for cross-checking;
angle tables are authoritative and vector lists are derived from them via the
closed forms in :mod:`qubitcert.bloch`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bloch import meas_bloch_vectors, prep_bloch_vectors, reduce_angle
from .witness import prob_matrix

__all__ = [
    "ETA",
    "ConfigSet",
    "BUILTIN_IDS",
    "builtin_config",
    "parametric_config",
    "predicted_prob_matrix",
    "config_bloch_vectors",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
]

#: Tetrahedral tilt angle, cos(ETA) = 1/3.
ETA = math.acos(1.0 / 3.0)

_PI = math.pi


@dataclass(frozen=True)
class ConfigSet:
    """Five preparation angle pairs and four measurement angle pairs.

    Angles are stored reduced to [0, 2*pi).  Two preparations whose Bloch
    vectors coincide make the witness vanish trivially (two equal columns),
    so near-duplicates are rejected at construction.
    """

    id: str
    preparations: tuple[tuple[float, float], ...]
    measurements: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        preps = tuple(
            (reduce_angle(a), reduce_angle(b)) for a, b in self.preparations
        )
        meas = tuple((reduce_angle(t), reduce_angle(f)) for t, f in self.measurements)
        if len(preps) != 5:
            raise ValueError(f"need exactly 5 preparations, got {len(preps)}")
        if len(meas) != 4:
            raise ValueError(f"need exactly 4 measurements, got {len(meas)}")
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "measurements", meas)
        vecs = prep_bloch_vectors(*np.array(preps).T)
        d = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=-1)
        i, j = np.unravel_index(np.argmin(d + 10.0 * np.eye(5)), (5, 5))
        if d[i, j] < 1e-9:
            raise ValueError(
                f"preparations[{i}] and preparations[{j}] have coinciding Bloch vectors"
            )


# Case I tables.  The shared first preparation is (0, 0) in both variants.
_PREPS_I_PRIME = (
    (0.0, 0.0),
    (2 * _PI / 3, _PI / 6),
    (2 * _PI / 3, -_PI / 6),
    (4 * _PI / 3, _PI / 6),
    (4 * _PI / 3, -_PI / 6),
)
_MEAS_I_PRIME = (
    (5 * _PI / 3, 7 * _PI / 6),
    (5 * _PI / 3, 5 * _PI / 6),
    (_PI / 3, 7 * _PI / 6),
    (_PI / 3, 5 * _PI / 6),
)

_PREPS_I_SECOND = (
    (0.0, 0.0),
    (0.0, _PI),
    (ETA - _PI, 0.0),
    (ETA + 5 * _PI / 3, 2 * _PI / 3),
    (ETA + _PI / 3, -2 * _PI / 3),
)
_MEAS_I_SECOND = (
    (_PI, 0.0),
    (_PI / 2, _PI),
    (7 * _PI / 6, 5 * _PI / 3),
    (-_PI / 6, _PI / 3),
)

# Case II shares measurements and preparations 1..4 with I-second (minus the
# north-pole preparation); the fifth preparation is the parametric one.
_PREPS_II_FIXED = (
    (0.0, 0.0),
    (ETA - _PI, 0.0),
    (ETA + 5 * _PI / 3, 2 * _PI / 3),
    (ETA + _PI / 3, -2 * _PI / 3),
)


def parametric_config(i: float) -> ConfigSet:
    """Case-II configuration with fifth preparation alpha_5 = 2*pi*i/5.

    Integer i in 0..4 gives the built-in family; any real i is accepted, which
    sweeps the fifth Bloch vector (-sin(2*pi*i/5), -cos(2*pi*i/5), 0) around
    the equator.
    """
    alpha5 = 2.0 * _PI * float(i) / 5.0
    return ConfigSet(
        id=f"II-{float(i):g}",
        preparations=_PREPS_II_FIXED + ((alpha5, alpha5 + _PI / 2),),
        measurements=_MEAS_I_SECOND,
    )


def _builtin_table() -> dict[str, ConfigSet]:
    table = {
        "I-prime": ConfigSet("I-prime", _PREPS_I_PRIME, _MEAS_I_PRIME),
        "I-second": ConfigSet("I-second", _PREPS_I_SECOND, _MEAS_I_SECOND),
    }
    for i in range(5):
        table[f"II-{i}"] = parametric_config(i)
    return table


_BUILTINS = _builtin_table()
BUILTIN_IDS = tuple(_BUILTINS)


def builtin_config(id: str) -> ConfigSet:
    """Look up a built-in configuration by its label."""
    try:
        return _BUILTINS[id]
    except KeyError:
        raise ValueError(
            f"unknown config id {id!r}; valid ids: {', '.join(BUILTIN_IDS)}"
        ) from None


def config_bloch_vectors(config: ConfigSet) -> tuple[np.ndarray, np.ndarray]:
    """Preparation Bloch vectors n (5, 3) and projective-effect vectors m (4, 3)."""
    pa, pb = np.array(config.preparations).T
    mt, mf = np.array(config.measurements).T
    return prep_bloch_vectors(pa, pb), meas_bloch_vectors(mt, mf)


def predicted_prob_matrix(config: ConfigSet) -> np.ndarray:
    """Ideal-qubit prediction p[k, j] = (1 + m_k . n_j)/2, with the ones row."""
    n, m = config_bloch_vectors(config)
    return prob_matrix(0.5 * (1.0 + m @ n.T))


# ---------------------------------------------------------------------------
# Config file format: {"id": str, "preparations": [[alpha, beta] x 5],
# "measurements": [[theta, phi] x 4]}, angles in radians.


def config_to_dict(config: ConfigSet) -> dict:
    return {
        "id": config.id,
        "preparations": [list(p) for p in config.preparations],
        "measurements": [list(m) for m in config.measurements],
    }


def _angle(value, field: str) -> float:
    # bool is an int subclass, but true is not an angle; NaN fails the bound
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and abs(value) <= sys.float_info.max):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def config_from_dict(data: dict) -> ConfigSet:
    """Parse a config document; a malformed one raises ValueError naming the
    offending field, e.g. ``preparations[2][0]``."""
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    for key in ("id", "preparations", "measurements"):
        if key not in data:
            raise ValueError(f"config file missing required key {key!r}")
    if not isinstance(data["id"], str):
        raise ValueError(f"id must be a string, got {data['id']!r}")
    pairs = {}
    for key, count in (("preparations", 5), ("measurements", 4)):
        raw = data[key]
        if not isinstance(raw, list) or len(raw) != count:
            raise ValueError(f"{key} must be a list of {count} angle pairs")
        out = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"{key}[{i}] must be an [angle, angle] pair, got {entry!r}")
            out.append((_angle(entry[0], f"{key}[{i}][0]"), _angle(entry[1], f"{key}[{i}][1]")))
        pairs[key] = tuple(out)
    return ConfigSet(data["id"], pairs["preparations"], pairs["measurements"])


def save_config(config: ConfigSet, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2) + "\n", encoding="utf-8"
    )


def load_config(path: str | Path) -> ConfigSet:
    try:
        data = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(data)
