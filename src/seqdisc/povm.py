"""Three-outcome measurements that identify one of two qubit states
without error, at a tunable failure probability per state.

Outcome labels: 1 means "state 1 identified", 2 means "state 2 identified",
0 means the inconclusive result.  For a pair with overlap s and failure
probabilities q1, q2 the Kraus operators are rank one,

    A_1 = sqrt(c1) |phi_1><psi2_perp|      c_i = (1 - q_i) / (1 - s^2)
    A_2 = sqrt(c2) |phi_2><psi1_perp|      a_i = q_i / (1 - s^2)
    A_0 = sqrt(a1) |phi_1><psi2_perp| + sqrt(a2) |phi_2><psi1_perp|

where the conditional states phi_1, phi_2 form a pair with overlap
t = s / sqrt(q1 q2).  Both the identifying and the failure branch leave the
qubit in the same phi_i, so the only information lost to the next observer
is the increase of the overlap from s to t.  Requiring t <= 1 gives the
admissibility condition q1 q2 >= s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import StatePair, check_overlap, freeze, make_state_pair

# Absolute tolerance of every numerical check in validate() and neumark.
DEFAULT_TOL = 1e-10

# Outcome probabilities below this floor are rounded to exactly zero.  The
# wrong-state outcomes carry only accumulated float noise (~1e-16); flooring
# them makes "never misidentifies" hold exactly in sampled runs as well.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class UDMeasurement:
    """An unambiguous discrimination measurement for a fixed state pair.

    `kraus` holds (A1, A2, A0) and `povm` the matching (Pi1, Pi2, Pi0).
    Pi0 is stored as identity minus the other two, so completeness is exact
    by construction; validate() reports how far A0^dag A0 sits from it.
    """

    input_pair: StatePair
    output_pair: StatePair
    q1: float
    q2: float
    kraus: tuple
    povm: tuple

    @property
    def exhausts_information(self) -> bool:
        """True when the conditional output states coincide, i.e. nothing
        is left for a later observer to discriminate."""
        return self.output_pair.s == 1.0


@dataclass(frozen=True)
class DiagnosticsReport:
    """Numerical health check of a UDMeasurement.

    trace_pi0 and det_pi0 come from the closed forms
    (q1 + q2 - 2 s^2) / (1 - s^2) and (q1 q2 - s^2) / (1 - s^2), with
    1 - s^2 taken as (1 - s)(1 + s); both must be nonnegative for Pi0 to
    be a valid element. Factored this way neither cancels as s nears 1.
    """

    completeness_residual: float
    min_eigenvalues: tuple
    trace_pi0: float
    det_pi0: float
    zero_error_residuals: tuple
    consistency_gap: float
    tol: float
    passed: bool


def build_intermediate_ud(pair: StatePair, q1: float, q2: float) -> UDMeasurement:
    """Measurement with prescribed failure probabilities q1, q2 in (0, 1].

    Requires q1*q2 >= s^2; at equality the output states coincide and the
    measurement extracts everything (exhausts_information is then True).
    q_i = 1 is allowed and simply means state i is never identified.
    The output overlap is s / q at q1 = q2 = q (exactly 1 at q = s) and
    s / sqrt(q1) / sqrt(q2) otherwise; neither squares, so admissibility
    is checked on it even where s^2 underflows, and up to 1e-12 above 1
    it is capped at 1.
    """
    s = check_overlap(pair.s, "input overlap s")
    for name, q in (("q1", q1), ("q2", q2)):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"{name}={q} outside (0, 1]")
    t = s / q1 if q1 == q2 else s / math.sqrt(q1) / math.sqrt(q2)
    if t > 1.0 + 1e-12:
        raise ValueError(
            f"output overlap s/sqrt(q1*q2) = {t} > 1: q1={q1}, q2={q2} violate the "
            f"admissibility bound q1*q2 >= s^2 for s={s}"
        )
    output_pair = make_state_pair(min(t, 1.0))

    one_minus_s2 = 1.0 - s * s
    c1 = (1.0 - q1) / one_minus_s2
    c2 = (1.0 - q2) / one_minus_s2
    a1 = q1 / one_minus_s2
    a2 = q2 / one_minus_s2

    ket1 = np.outer(output_pair.psi1, np.conj(pair.psi2_perp))
    ket2 = np.outer(output_pair.psi2, np.conj(pair.psi1_perp))
    A1 = math.sqrt(c1) * ket1
    A2 = math.sqrt(c2) * ket2
    A0 = math.sqrt(a1) * ket1 + math.sqrt(a2) * ket2

    Pi1 = A1.conj().T @ A1
    Pi2 = A2.conj().T @ A2
    Pi0 = np.eye(2, dtype=complex) - Pi1 - Pi2

    return UDMeasurement(
        input_pair=pair,
        output_pair=output_pair,
        q1=float(q1),
        q2=float(q2),
        kraus=(freeze(A1), freeze(A2), freeze(A0)),
        povm=(freeze(Pi1), freeze(Pi2), freeze(Pi0)),
    )


def build_optimal_ud(pair: StatePair) -> UDMeasurement:
    """The minimum-failure measurement for equal priors: q1 = q2 = s.

    This saturates q1*q2 = s^2, so the output states coincide and the
    average failure probability takes its smallest possible value, s.
    """
    return build_intermediate_ud(pair, pair.s, pair.s)


def validate(meas: UDMeasurement) -> DiagnosticsReport:
    """Check completeness, positivity, and the zero-error property; a POVM
    element that is not Hermitian within DEFAULT_TOL raises ValueError."""
    Pi1, Pi2, Pi0 = meas.povm
    A1, A2, A0 = meas.kraus
    pair = meas.input_pair
    s = pair.s
    one_minus_s2 = (1.0 - s) * (1.0 + s)

    completeness = float(np.linalg.norm(Pi1 + Pi2 + Pi0 - np.eye(2)))
    for P in meas.povm:
        if np.linalg.norm(P - P.conj().T) > DEFAULT_TOL:
            raise ValueError("POVM element is not Hermitian within tolerance")
    eigs = tuple(float(np.linalg.eigvalsh(P)[0]) for P in meas.povm)
    trace_pi0 = (meas.q1 + meas.q2 - 2.0 * s * s) / one_minus_s2
    det_pi0 = (meas.q1 * meas.q2 - s * s) / one_minus_s2
    zero_err = (
        abs(complex(np.vdot(pair.psi2, Pi1 @ pair.psi2))),
        abs(complex(np.vdot(pair.psi1, Pi2 @ pair.psi1))),
    )
    gap = float(np.linalg.norm(Pi0 - A0.conj().T @ A0))

    passed = (
        completeness <= DEFAULT_TOL
        and all(e >= -DEFAULT_TOL for e in eigs)
        and trace_pi0 >= -DEFAULT_TOL
        and det_pi0 >= -DEFAULT_TOL
        and all(r <= DEFAULT_TOL for r in zero_err)
        and gap <= DEFAULT_TOL
    )
    return DiagnosticsReport(
        completeness_residual=completeness,
        min_eigenvalues=eigs,
        trace_pi0=trace_pi0,
        det_pi0=det_pi0,
        zero_error_residuals=zero_err,
        consistency_gap=gap,
        tol=DEFAULT_TOL,
        passed=passed,
    )


def outcome_probabilities(meas: UDMeasurement, input_index: int) -> tuple:
    """Probabilities of outcomes (1, 2, 0) when state `input_index` is sent.

    Values below PROB_FLOOR are rounded to exactly zero; for states in the
    declared pair that only affects the forbidden wrong-state outcome.
    """
    if input_index not in (1, 2):
        raise ValueError(f"input_index must be 1 or 2, got {input_index}")
    psi = meas.input_pair.psi1 if input_index == 1 else meas.input_pair.psi2
    probs = []
    for P in meas.povm:  # (Pi1, Pi2, Pi0)
        p = float(np.real(np.vdot(psi, P @ psi)))
        probs.append(0.0 if p < PROB_FLOOR else p)
    return tuple(probs)


def sampling_boundaries(meas: UDMeasurement) -> np.ndarray:
    """Cumulative outcome boundaries for classifying uniform draws.

    Row i-1 holds (P(1), P(1)+P(2)) for input state i: a uniform u maps to
    outcome 1 below the first entry, 2 below the second, and 0 otherwise.
    The failure cell extends to 1 so rounding in the sums never leaks
    probability into a wrong outcome.
    """
    rows = []
    for i in (1, 2):
        p1, p2, _ = outcome_probabilities(meas, i)
        rows.append((p1, p1 + p2))
    return np.array(rows)


def classify_uniforms(boundaries: np.ndarray, prep: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized outcome classification against sampling_boundaries().

    `prep` holds prepared indices (1 or 2), `u` the uniforms; returns an
    int8 array of outcomes in {0, 1, 2} using the same cell layout as
    apply().  With lo, hi = the row of `prep`, the outcome is
    2*(u < hi) - (u < lo), which gives those cells only because every row
    has lo <= hi (P(2) >= 0); lo == hi is an empty outcome-2 cell.
    """
    idx = prep - 1
    below_lo = (u < np.take(boundaries[:, 0], idx)).view(np.int8)
    return 2 * (u < np.take(boundaries[:, 1], idx)).view(np.int8) - below_lo


def apply(meas: UDMeasurement, input_index: int, rand: float):
    """Apply the measurement to one prepared state using a uniform draw.

    Returns (outcome, post_state).  The draw is classified against the
    cells [0, P(1)), [P(1), P(1)+P(2)), [P(1)+P(2), 1); the post state is
    the normalized action of the matching Kraus operator.
    """
    if not 0.0 <= rand < 1.0:
        raise ValueError(f"rand={rand} outside [0, 1)")
    p1, p2, _ = outcome_probabilities(meas, input_index)
    if rand < p1:
        outcome, A = 1, meas.kraus[0]
    elif rand < p1 + p2:
        outcome, A = 2, meas.kraus[1]
    else:
        outcome, A = 0, meas.kraus[2]
    psi = meas.input_pair.psi1 if input_index == 1 else meas.input_pair.psi2
    post = A @ psi
    return outcome, freeze(post / np.linalg.norm(post))
