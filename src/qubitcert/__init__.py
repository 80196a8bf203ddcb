"""qubitcert: certification toolkit for the determinant dimension witness.

Five preparations and four binary measurements on a qubit produce a 5x5
probability matrix (with an appended ones row) whose determinant W vanishes
for every qubit — or classical-bit — model.  A significantly nonzero W
therefore certifies behaviour beyond two dimensions.  This package computes W
and its shot-noise error, simulates the counting experiment, models noise
channels the witness is blind to (and one it is not), and reproduces the
known extremal values of W in higher dimensions by numerical search.

Import each name from the module that defines it, for example
``from qubitcert.extremal import maximize_witness``; the package itself holds
only ``__version__``.  The modules are ``bloch`` (Bloch vectors), ``witness``
(the behaviour matrix, W, its adjugate and variance), ``configs``
(configurations and their JSON), ``noise`` (noise channels, drift ensembles,
their audit and bound), ``sampling`` (records, simulation, estimators), ``extremal``
(the search for extremal W), ``seeding`` (numpy generators for many runs,
seeded in one batched pass), ``reports`` (the analysis report and its
renderings) and ``cli`` (the ``qubitcert`` command).
"""

__version__ = "0.1.0"
