"""Sequential unambiguous discrimination of two qubit states.

Multiple observers measure the same qubit in turn, each identifying the
prepared state without error or declaring failure, and no observer needs
classical help from the ones before.  The package builds the measurements
explicitly (Kraus operators, the completed three-outcome set, and a unitary
realization on qubit plus qutrit), evaluates the closed-form success rates,
compares against strategies that consume the state or communicate, and
cross-checks everything with seeded Monte Carlo.
"""

# Eager on purpose: the traced benchmark reads numpy's import time from `import seqdisc`.
from . import b92, neumark, povm, reporting, sampling, sequential, states, strategies

__version__ = "0.1.0"
