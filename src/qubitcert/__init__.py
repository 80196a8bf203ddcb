"""qubitcert: certification toolkit for the determinant dimension witness.

Five preparations and four binary measurements on a qubit produce a 5x5
probability matrix (with an appended ones row) whose determinant W vanishes
for every qubit — or classical-bit — model.  A significantly nonzero W
therefore certifies behaviour beyond two dimensions.  This package computes W
and its shot-noise error, simulates the counting experiment, models noise
channels the witness is blind to (and one it is not), and reproduces the
known extremal values of W in higher dimensions by numerical search.
"""

__version__ = "0.1.0"

from .configs import (
    BUILTIN_IDS,
    ConfigSet,
    builtin_config,
    parametric_config,
    predicted_prob_matrix,
)
from .extremal import (
    SearchResult,
    StrategyPoint,
    maximize_witness,
)
from .noise import (
    DriftModel,
    apply_common_leakage,
    apply_readout_error,
    coherent_leak_prob_matrix,
    drift_bound,
    generate_drift_ensemble,
)
from .sampling import (
    ExperimentRecord,
    estimate_per_job,
    estimate_pooled,
    load_record,
    save_record,
    simulate_record,
)
from .witness import WitnessResult, prob_matrix, witness, witness_variance

__all__ = [
    "__version__",
    "BUILTIN_IDS",
    "ConfigSet",
    "builtin_config",
    "parametric_config",
    "predicted_prob_matrix",
    "SearchResult",
    "StrategyPoint",
    "maximize_witness",
    "DriftModel",
    "apply_common_leakage",
    "apply_readout_error",
    "coherent_leak_prob_matrix",
    "drift_bound",
    "generate_drift_ensemble",
    "ExperimentRecord",
    "estimate_per_job",
    "estimate_pooled",
    "load_record",
    "save_record",
    "simulate_record",
    "WitnessResult",
    "prob_matrix",
    "witness",
    "witness_variance",
]
