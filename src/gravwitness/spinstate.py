"""Two-spin state after the interferometers, witness and entanglement measures.

Basis ordering is {uu, ud, du, dd} with sigma_z |u> = +|u>.  The recombined
state for branch differentials (a, b) has amplitudes (1, e^{ia}, e^{ib}, 1)/2;
its entanglement depends only on a + b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_PRODUCTS = {(a, b): np.kron(pa, pb)
                   for a, pa in PAULIS.items() for b, pb in PAULIS.items()}

# entries (i, j) of rho where qubit 1's (qubit 2's) index differs between
# the row and the column basis state
_INDEX = np.arange(4)
_QUBIT1_DIFFERS = _INDEX[:, None] // 2 != _INDEX // 2
_QUBIT2_DIFFERS = _INDEX[:, None] % 2 != _INDEX % 2

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """4x4 density matrix in the {uu, ud, du, dd} basis.

    Construction enforces hermiticity (1e-12), unit trace (1e-12) and
    positivity (eigenvalues >= -1e-10).  Two states are equal when their
    matrices are equal entry by entry.
    """

    rho: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, TwoQubitState):
            return NotImplemented
        return bool(np.array_equal(self.rho, other.rho))

    # equal matrices may differ in the sign of a zero, which a hash of
    # their bytes would tell apart
    __hash__ = None

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"rho must be 4x4, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("rho contains non-finite entries")
        herm = abs(rho - rho.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"rho not Hermitian: max |rho - rho^dag| = {herm:g}")
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace(rho) = {tr} differs from 1")
        lo = np.linalg.eigvalsh(rho).min()
        if lo < -EIGENVALUE_TOL:
            raise ValueError(f"rho not positive semidefinite: min eigenvalue {lo:g}")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


@dataclass(frozen=True)
class WitnessSettings:
    """Local z-rotation angles applied to each qubit before measuring."""

    thetaZ1: float = 0.0
    thetaZ2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.thetaZ1) and math.isfinite(self.thetaZ2)):
            raise ValueError("witness angles must be finite")


@dataclass(frozen=True)
class WitnessResult:
    w: float                      # |<sx sz> - <sy sz>| after the local rotations
    expXZ: float
    expYZ: float
    negativity: float             # of the unrotated state
    entangledByNegativity: bool


def entangled_state(dPhiLR: float, dPhiRL: float) -> TwoQubitState:
    """Pure state with amplitudes (1, e^{i dPhiLR}, e^{i dPhiRL}, 1)/2."""
    if not (math.isfinite(dPhiLR) and math.isfinite(dPhiRL)):
        raise ValueError(f"phases must be finite, got dPhiLR={dPhiLR!r}, "
                         f"dPhiRL={dPhiRL!r}")
    return TwoQubitState(_pure_rho(dPhiLR, dPhiRL))


def _pure_rho(dPhiLR, dPhiRL) -> np.ndarray:
    """v v^dagger for v = (1, e^{i dPhiLR}, e^{i dPhiRL}, 1)/2.  Arrays of
    phases give a stack of matrices along the leading axes."""
    one = np.ones(np.shape(dPhiLR))
    v = np.stack([one, np.exp(1j * dPhiLR), np.exp(1j * dPhiRL), one],
                 axis=-1) / 2.0
    return v[..., :, None] * v.conj()[..., None, :]


def expectation(state: TwoQubitState, pauli1: str, pauli2: str) -> float:
    """Tr(rho (P1 x P2)) for P in {I, X, Y, Z}; the O(1e-16) imaginary
    residue of the trace is discarded."""
    try:
        product = _PAULI_PRODUCTS[pauli1.upper(), pauli2.upper()]
    except (KeyError, AttributeError):
        raise ValueError(f"invalid Pauli index pair ({pauli1!r}, {pauli2!r}); "
                         "expected I, X, Y or Z") from None
    return float(np.real(np.trace(state.rho @ product)))


def negativity(state: TwoQubitState) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over qubit 2.

    For two qubits this is an exact entanglement criterion: positive iff
    the state is entangled.
    """
    pt = state.rho.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)
    evals = np.linalg.eigvalsh(pt)
    return float(-evals[evals < 0].sum()) + 0.0


def witness(state: TwoQubitState, settings: WitnessSettings | None = None) -> WitnessResult:
    """Evaluate W = |<sx x sz> - <sy x sz>| after the local z-rotations.

    The rotated correlators follow in closed form from the unrotated ones;
    thetaZ2 has no effect.  W <= sqrt(2) on every state and a product state
    reaches sqrt(2), so no value of W certifies entanglement; the negativity
    of the unrotated state, reported alongside, is the exact criterion.
    """
    settings = WitnessSettings() if settings is None else settings
    return _witness(state, settings, expectation(state, "X", "Z"),
                    expectation(state, "Y", "Z"))


def _witness(state: TwoQubitState, settings: WitnessSettings,
             cxz: float, cyz: float) -> WitnessResult:
    """`witness` from the unrotated <XZ> and <YZ>."""
    # Conjugating sigma_x by Rz(t) gives cos(t) sx - sin(t) sy, and sigma_y
    # gives cos(t) sy + sin(t) sx; sigma_z on qubit 2 commutes with Rz(thetaZ2).
    c, s = math.cos(settings.thetaZ1), math.sin(settings.thetaZ1)
    exz, eyz = c * cxz - s * cyz, c * cyz + s * cxz
    neg = negativity(state)
    return WitnessResult(w=abs(exz - eyz), expXZ=exz, expYZ=eyz,
                         negativity=neg, entangledByNegativity=neg > 1e-9)


def optimize_witness(state: TwoQubitState) -> tuple[WitnessSettings, WitnessResult]:
    """Maximize W over the local z-rotation angles, in closed form.

    With A = <XZ> - <YZ> and B = <XZ> + <YZ>, W(theta1) =
    |A cos(theta1) - B sin(theta1)|, whose maximum sqrt(A^2 + B^2) sits at
    theta1 = atan2(-B, A).  theta2 is degenerate and returned as 0.  The
    returned W is >= the W of any angles, up to rounding.
    """
    cxz, cyz = expectation(state, "X", "Z"), expectation(state, "Y", "Z")
    # + 0.0 turns the -0.0 of atan2(-0.0, 0.0) into 0.0 for W = 0 states
    settings = WitnessSettings(math.atan2(-(cxz + cyz), cxz - cyz) + 0.0)
    return settings, _witness(state, settings, cxz, cyz)


def apply_dephasing(state: TwoQubitState, p1: float, p2: float) -> TwoQubitState:
    """Independent phase-flip channels: per qubit j, Kraus operators
    {sqrt(1-p_j) I, sqrt(p_j) sigma_z}.  Applied elementwise: entries of rho
    whose qubit-j index differs between row and column scale by (1 - 2 p_j),
    populations are untouched, and negativity never increases."""
    for name, p in (("p1", p1), ("p2", p2)):
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return TwoQubitState(state.rho * _dephasing_factors(p1, p2))


def _dephasing_factors(p1, p2) -> np.ndarray:
    """The elementwise factors of the two phase-flip channels.  Arrays of
    probabilities give a stack of 4x4 factors along the leading axes."""
    keep1 = (1.0 - 2.0 * np.asarray(p1))[..., None, None]
    keep2 = (1.0 - 2.0 * np.asarray(p2))[..., None, None]
    return (np.where(_QUBIT1_DIFFERS, keep1, 1.0)
            * np.where(_QUBIT2_DIFFERS, keep2, 1.0))


def dephased_correlators(dPhiLR, dPhiRL, p1):
    """<XZ> and <YZ> of `entangled_state(dPhiLR, dPhiRL)` after
    `apply_dephasing` with qubit-1 probability p1, in closed form:
    k (cos dPhiRL - cos dPhiLR)/2 and k (sin dPhiLR + sin dPhiRL)/2 with
    k = 1 - 2 p1.  X and Y flip qubit 1 only, so p2 does not enter.

    Builds and checks no state, and does not check its inputs.  Floats give
    numpy floats and arrays give arrays, computed with the same numpy sin
    and cos either way.
    """
    keep1 = 1.0 - 2.0 * p1
    return (keep1 * (np.cos(dPhiRL) - np.cos(dPhiLR)) / 2.0,
            keep1 * (np.sin(dPhiLR) + np.sin(dPhiRL)) / 2.0)
