"""Unitary realization of the optimal chain stage on a qubit plus qutrit.

The first observer's measurement (failure probability sqrt(s) per state)
extends to a unitary U on the 6-dimensional system qubit (x) ancilla:

    U |psi_i>|0> = |phi_i> ( sqrt(1 - sqrt(s)) |i> + s**0.25 |0> )_anc

Reading the ancilla in its computational basis gives outcome i ("state i
identified") or 0 ("failure"), while the qubit is left in the conditional
state phi_i either way, exactly as the Kraus description demands.  Basis
ordering on the composite space: index = 3*(qubit index) + (ancilla index).

Only the action of U on the ancilla-|0> sector is physical.  The other
four columns complete it in closed form: each physical column has a
partner in its own plane of product vectors, and the ancilla vector v3
orthogonal to v1 and v2 gives the last two columns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .povm import PROB_FLOOR, build_intermediate_ud, outcome_statistics, outcome_table
from .reporting import Echo, csv_text
from .states import check_overlap, freeze

QUBIT_DIM = 2
ANCILLA_DIM = 3
TOTAL_DIM = QUBIT_DIM * ANCILLA_DIM


class DilationUnitary(NamedTuple):
    """The 6x6 unitary together with the geometry it was built from.

    theta encodes the input pair (s = cos 2*theta) and theta_prime the
    output pair (sqrt(s) = cos 2*theta_prime).
    """

    s: float
    theta: float
    theta_prime: float
    u: np.ndarray


def build_dilation(s: float) -> DilationUnitary:
    """Construct U for overlap s at the symmetric optimal point q = sqrt(s).

    The two physical columns U|0>|0> and U|1>|0> (composite indices 0 and
    3) are fixed by the measurement.  Columns 1 and 2 are their partners
    in the planes {|0>v1, |1>v2} and {|0>v2, |1>v1}; columns 4 and 5 are
    |0>v3 and |1>v3.  Each 1 - sqrt(s) in them and in theta_prime =
    asin(sqrt((1 - sqrt(s)) / 2)) is computed as (1 - s) / (1 + sqrt(s)),
    so that U and theta_prime keep their digits near s = 1.
    """
    s = check_overlap(s)
    rs = math.sqrt(s)
    gap = (1.0 - s) / (1.0 + rs)
    # orthonormal ancilla vectors: v1 and v2 synthesize the physical
    # columns and v3 completes the basis
    e0, e1, e2 = np.eye(3)
    norm = math.sqrt(1.0 + rs)
    v1 = (math.sqrt(2.0) * s**0.25 * e0 + math.sqrt(gap / 2.0) * (e1 + e2)) / norm
    v2 = (e1 - e2) / math.sqrt(2.0)
    v3 = (math.sqrt(gap) * e0 - s**0.25 * (e1 + e2)) / norm
    e0q, e1q = np.eye(2)
    norm = math.sqrt(2.0 * (1.0 + s))
    col_00 = ((1.0 + rs) * np.kron(e0q, v1) + gap * np.kron(e1q, v2)) / norm
    col_10 = (np.kron(e0q, v2) + np.kron(e1q, v1)) / math.sqrt(2.0)
    partner_00 = (gap * np.kron(e0q, v1) - (1.0 + rs) * np.kron(e1q, v2)) / norm
    partner_10 = (np.kron(e0q, v2) - np.kron(e1q, v1)) / math.sqrt(2.0)
    u = np.column_stack([col_00, partner_00, partner_10, col_10,
                         np.kron(e0q, v3), np.kron(e1q, v3)])
    return DilationUnitary(
        s=float(s),
        theta=0.5 * math.acos(s),
        theta_prime=math.asin(math.sqrt(gap / 2.0)),
        u=freeze(u),
    )


def dilation_statistics(dilation: DilationUnitary, input_index: int):
    """Evolve state `input_index` (ancilla in |0>) and read the ancilla.

    Returns (probs, posts) for ancilla outcomes (0, 1, 2) through
    povm.outcome_table(): the ket of outcome m is the qubit part of
    U |psi>|0> beside |m>, read from U's physical columns 0 and 3.
    """
    return outcome_table(dilation.s, input_index, lambda psi: (
        dilation.u[:, ::ANCILLA_DIM] @ psi).reshape(QUBIT_DIM, ANCILLA_DIM).T)


def povm_equivalence(dilation: DilationUnitary) -> float:
    """Largest deviation between the dilation and the Kraus description of
    the measurement it realizes, built here from the dilation's own s with
    failure probability sqrt(s).

    Returns the maximum outcome-probability gap plus the maximum
    conditional-state infidelity over both inputs, read entry by entry
    from the two outcome tables, which share the order (0, 1, 2)."""
    meas = build_intermediate_ud(dilation.s, math.sqrt(dilation.s))
    prob_gap = 0.0
    infidelity = 0.0
    for i in (1, 2):
        table = zip(*dilation_statistics(dilation, i), *outcome_statistics(meas, i))
        for dil_p, dil_post, meas_p, meas_post in table:
            prob_gap = max(prob_gap, abs(dil_p - meas_p))
            if dil_p <= PROB_FLOOR or meas_p <= PROB_FLOOR:
                continue
            overlap = float(dil_post @ meas_post) ** 2
            infidelity = max(infidelity, 1.0 - overlap)
    return prob_gap + infidelity


def dilation_report(dilation: DilationUnitary) -> dict:
    """The `neumark` command's report: the dilation's angles, how far U is
    from unitary, its povm_equivalence() residual, and the largest
    wrong-outcome probability of either input.  A residual at or below
    PROB_FLOOR prints as 0.0, as a wrong-outcome probability below it
    does: it is rounding noise, and no byte may depend on how it rounds."""
    residuals = {
        "unitarity_residual": float(np.linalg.norm(dilation.u.T @ dilation.u - np.eye(TOTAL_DIM))),
        "equivalence_residual": povm_equivalence(dilation),
    }
    return {
        "s": Echo(dilation.s),
        "theta": dilation.theta,
        "theta_prime": dilation.theta_prime,
        **{key: 0.0 if x <= PROB_FLOOR else x for key, x in residuals.items()},
        "max_wrong_outcome_probability": max(
            dilation_statistics(dilation, i)[0][3 - i] for i in (1, 2)),
    }


def unitary_csv(dilation: DilationUnitary) -> str:
    """The `neumark --matrix` table: header re0,im0,...,re5,im5, then the
    rows of U as alternating real and imaginary parts (6 rows of 12).  U
    is real, so every im column is a literal 0."""
    header = [f"{part}{j}" for j in range(TOTAL_DIM) for part in ("re", "im")]
    cells = np.stack([dilation.u, np.zeros_like(dilation.u)], -1)
    return csv_text(header, cells.reshape(TOTAL_DIM, 2 * TOTAL_DIM))
