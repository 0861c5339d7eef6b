"""Mode-discretized model of the gravitational field during the hold stage.

Each branch displaces every field mode into a coherent state; the branch
phase comes from the cross term of the squared matter-field coupling.  After
analytic angular reduction (int dOmega e^{i k.dr} = 4 pi sinc(k dr)) the
phase collapses to a 1D radial quadrature,

    phase(r, t) = (G m1 m2 t / hbar) (2/pi) int dk sinc(k r) e^{-k/kCut}.

Taken to k = inf it is the Newtonian G m1 m2 t/(hbar r) times
(2/pi) arctan(kCut r).  `modes_for_separation` stops at k r = 60, so the sum
converges to the truncated integral: 1.009537 times the Newtonian phase at
kCut r = 2e3, where `mode_sum_ratio(4000, 2e3)` is 1.0094428.  On that grid
the ratio depends on (nModes, kCutTimesR) alone; `mode_sum_ratio` caches it.
One polarization channel is used; g^2 ~ 1/V cancels against mode counting,
so the normalization is exactly 1.

The coherent amplitudes alpha (`branch_displacement_set`) are the reference
for the branch overlaps, the which-path estimate (astronomically close to 1
here).  `_branch_sums` takes the same overlaps from real mode sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import CONSTANTS, ExperimentConfig
from .gravphase import BRANCHES, _separations, branch_positions
from .spinstate import TwoQubitState


@dataclass(frozen=True)
class FieldModeSet:
    """Radial wavenumber grid with trapezoidal quadrature weights."""

    kGrid: np.ndarray        # strictly increasing, positive, 1/m
    weights: np.ndarray      # trapezoidal dk weights, 1/m
    kCut: float              # exponential UV damping scale, 1/m

    def __post_init__(self):
        k = np.asarray(self.kGrid, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if k.ndim != 1 or k.size < 2 or w.shape != k.shape:
            raise ValueError("kGrid and weights must be matching 1-D arrays, >= 2 points")
        if not (np.all(k > 0) and np.all(np.diff(k) > 0)):
            raise ValueError("kGrid must be strictly increasing and positive")
        if not np.all(w > 0):
            raise ValueError("weights must be positive")
        if not (np.isfinite(self.kCut) and self.kCut > 0):
            raise ValueError(f"kCut must be positive, got {self.kCut!r}")
        k.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "kGrid", k)
        object.__setattr__(self, "weights", w)

    @property
    def nModes(self) -> int:
        return self.kGrid.size


@dataclass(frozen=True)
class BranchDisplacements:
    """Coherent-state amplitude per mode for one branch, plus its phase."""

    modes: FieldModeSet
    alpha: np.ndarray        # complex amplitude per mode (vacuum initial field)
    branchPhase: float       # secular phase, rad

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=complex)
        if a.shape != self.modes.kGrid.shape:
            raise ValueError("alpha must have one entry per mode")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("alpha contains non-finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


def build_modes(kMin: float, kMax: float, nModes: int, kCut: float) -> FieldModeSet:
    """Logarithmically spaced radial grid with trapezoidal weights."""
    if not (0 < kMin < kMax):
        raise ValueError(f"need 0 < kMin < kMax, got kMin={kMin!r}, kMax={kMax!r}")
    if nModes < 2:
        raise ValueError(f"nModes must be >= 2, got {nModes}")
    k = np.geomspace(kMin, kMax, nModes)
    w = np.empty_like(k)
    w[1:-1] = (k[2:] - k[:-2]) / 2
    w[0] = (k[1] - k[0]) / 2
    w[-1] = (k[-1] - k[-2]) / 2
    return FieldModeSet(kGrid=k, weights=w, kCut=kCut)


def modes_for_separation(separation: float, nModes: int = 4000,
                         kCutTimesR: float = 2e3) -> FieldModeSet:
    """Grid tuned for separations near ``separation``: kCut = kCutTimesR/r,
    covering k r from 1e-4 (below which the integrand is flat) to 60.  The
    damped tail past 60, left out, is -0.99% of the Newtonian phase at
    kCutTimesR = 2e3."""
    if separation <= 0:
        raise ValueError(f"separation must be positive, got {separation!r}")
    return build_modes(1e-4 / separation, 60.0 / separation, nModes,
                       kCutTimesR / separation)


def _mode_sums(modes: FieldModeSet, separations, scale: float,
               trig: np.ndarray | None = None) -> dict:
    """scale * sum_k w sinc(k r) e^{-k/kCut} at each of ``separations``,
    all from one e^{-k/kCut}.  sinc is sin(y)/y, y formed as `np.sinc` forms
    it; ``trig`` receives (sin y, cos y) per separation."""
    k, w = modes.kGrid, modes.weights
    damping = np.exp(-k / modes.kCut)
    sums = {}
    for i, r in enumerate(separations):
        y = np.pi * (k * r / np.pi)
        y = np.where(y, y, np.finfo(float).eps)
        sin_y = np.sin(y) if trig is None else np.sin(y, out=trig[i, 0])
        if trig is not None:
            np.cos(y, out=trig[i, 1])
        sums[r] = scale * float(np.sum(w * (sin_y / y * damping)))
    return sums


@functools.lru_cache(maxsize=64)
def mode_sum_ratio(nModes: int, kCutTimesR: float) -> float:
    """`branch_phase` / `newtonian_phase` on the grid
    `modes_for_separation(r, nModes, kCutTimesR)` at its own r, for every r,
    t and mass: that grid is the r = 1 grid over r, up to its rounding.
    Cached, one float per (nModes, kCutTimesR)."""
    unit = modes_for_separation(1.0, nModes, kCutTimesR)
    return _mode_sums(unit, (1.0,), 2.0 / np.pi)[1.0]


def _branch_phases(modes: FieldModeSet, config: ExperimentConfig,
                   separations, t: float, trig=None) -> dict[float, float]:
    """`branch_phase` at each of ``separations``; ``trig`` as `_mode_sums`."""
    for separation in separations:
        if separation <= 0:
            raise ValueError(f"separation must be positive, got {separation!r}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    pref = CONSTANTS.G * config.m1 * config.m2 * t / CONSTANTS.hbar
    return _mode_sums(modes, separations, pref * (2.0 / np.pi), trig)


def branch_phase(modes: FieldModeSet, config: ExperimentConfig,
                 separation: float, t: float) -> float:
    """Secular phase of one branch from the mode sum (cross term only;
    the position-independent self terms are a global phase)."""
    return _branch_phases(modes, config, (separation,), t)[separation]


def newtonian_phase(config: ExperimentConfig, separation: float, t: float) -> float:
    """Continuum target G m1 m2 t / (hbar r), divided by hbar and by r in
    turn where hbar r is below the smallest normal float."""
    gmmt = CONSTANTS.G * config.m1 * config.m2 * t
    hbar_r = CONSTANTS.hbar * separation
    return (gmmt / hbar_r if abs(hbar_r) >= np.finfo(float).tiny
            else gmmt / CONSTANTS.hbar / separation)


def _branches(modes: FieldModeSet, config: ExperimentConfig, t: float,
              positions: dict) -> dict[str, BranchDisplacements]:
    """alpha_k = (g1/w_k e^{i k x1} + g2/w_k e^{i k x2})(e^{i w_k t} - 1) per
    branch (vacuum initial field).  An overflow leaves alpha non-finite,
    which BranchDisplacements rejects; numpy does not warn."""
    phases = _branch_phases(modes, config,
                            {abs(x2 - x1) for x1, x2 in positions.values()}, t)
    k = modes.kGrid
    with np.errstate(all="ignore"):
        omega = CONSTANTS.c * k
        # Shell-aggregated coupling: gbar^2 = g^2 V (4 pi k^2 w)/(2 pi)^3 with
        # g = m c^2 sqrt(2 pi G/(hbar c^3 k V)); the volume cancels.  Half of
        # the UV damping goes on each coupling so products carry e^{-k/kCut}.
        shell = np.sqrt(CONSTANTS.G * CONSTANTS.c * k * modes.weights
                        / (np.pi * CONSTANTS.hbar))
        damping = np.exp(-k / (2.0 * modes.kCut))
        c1, c2 = (m * shell * damping / omega for m in (config.m1, config.m2))
        ring = np.exp(1j * omega * t) - 1.0
        return {b: BranchDisplacements(
                    modes=modes, branchPhase=phases[abs(x2 - x1)],
                    alpha=(c1 * np.exp(1j * k * x1) + c2 * np.exp(1j * k * x2)) * ring)
                for b, (x1, x2) in positions.items()}


def displacements(modes: FieldModeSet, config: ExperimentConfig,
                  positions: tuple[float, float], t: float) -> BranchDisplacements:
    """Per-mode coherent amplitudes for one branch at time t."""
    return _branches(modes, config, t, {"": positions})[""]


def branch_displacement_set(modes: FieldModeSet, config: ExperimentConfig,
                            t: float) -> dict[str, BranchDisplacements]:
    """Displacements for all four branches at a common time."""
    return _branches(modes, config, t, branch_positions(config))


def branch_overlap(dA: BranchDisplacements, dB: BranchDisplacements) -> complex:
    """Product over modes of the coherent-state overlaps <alpha_A | alpha_B>.

    |<a|b>| = exp(-|a-b|^2/2); the phase is sum Im(conj(a) b).  Magnitude is
    in (0, 1], and 1 exactly for identical branches.
    """
    if not np.array_equal(dA.modes.kGrid, dB.modes.kGrid):
        raise ValueError("branch displacements built on mismatched mode grids")
    with np.errstate(all="ignore"):    # an overflow is left to the state check
        diff2 = float(np.sum(np.abs(dA.alpha - dB.alpha) ** 2))
        # Im(conj(a) b) written so identical branches give exactly zero phase
        phase = float(np.sum(dA.alpha.real * dB.alpha.imag
                             - dA.alpha.imag * dB.alpha.real))
        return _overlap(diff2, phase)


def _overlap(diff2: float, phase: float) -> complex:
    """`branch_overlap` from sum |a - b|^2 and sum Im(conj(a) b)."""
    return complex(np.exp(-0.5 * diff2) * np.exp(1j * phase))


def branch_overlaps(branches: dict[str, BranchDisplacements]) -> dict:
    """<chi_b' | chi_b> for the six branch pairs (b, b'), b before b' in
    BRANCHES; the reversed pairs are their complex conjugates."""
    missing = [b for b in BRANCHES if b not in branches]
    if missing:
        raise ValueError(f"missing branches: {missing}")
    return {(bi, bj): branch_overlap(branches[bj], branches[bi])
            for bi, bj in combinations(BRANCHES, 2)}


def reduced_mass_state(branches: dict[str, BranchDisplacements],
                       overlaps: dict | None = None) -> TwoQubitState:
    """Orbital-qubit density matrix after tracing out the field:
    rho_{b b'} = (1/4) e^{i(phi_b - phi_b')} <chi_b' | chi_b>.

    This is 1/4 times a Gram matrix of unit vectors, hence a valid state.
    In the limit of unit overlaps it equals the pure entangled state built
    from the same phase differentials.  ``overlaps`` (`branch_overlaps`) fill
    the upper triangle; the lower one is their exact conjugate.
    """
    overlaps = branch_overlaps(branches) if overlaps is None else overlaps
    return _mass_state({b: d.branchPhase for b, d in branches.items()}, overlaps)


def _mass_state(phases: dict, overlaps: dict) -> TwoQubitState:
    """`reduced_mass_state` from the branch phases and the overlaps."""
    rho = np.diag(np.full(4, 0.25, dtype=complex))
    for (bi, bj), ov in overlaps.items():
        i, j = BRANCHES.index(bi), BRANCHES.index(bj)
        rho[i, j] = 0.25 * np.exp(1j * (phases[bi] - phases[bj])) * ov
        rho[j, i] = np.conj(rho[i, j])
    return TwoQubitState(rho)


def _branch_sums(modes: FieldModeSet, config: ExperimentConfig,
                 t: float) -> tuple[dict, dict]:
    """The branch phases of `branch_displacement_set`, and per
    `branch_overlaps` pair (b, b') the exponents (sum |alpha_b' - alpha_b|^2,
    sum Im(conj(alpha_b') alpha_b)) of <chi_b'|chi_b>, without alpha.

    alpha = ring u (m1 e^{i k x1} + m2 e^{i k x2}) makes both sums of
    R u^2 e^{i k D}, R = |ring|^2, over D = 0, dx and the separations
    x2 - x1.  These reuse the phase sums' trig, and
    e^{i k dx} = e^{i k r_LR} e^{-i k r_LL}."""
    seps = dict(zip(BRANCHES, _separations(config.d, config.dx)))
    distinct = list(dict.fromkeys(seps.values()))      # LL and RR are d
    k = modes.kGrid
    trig = np.empty((len(distinct) + 1, 2, k.size))    # (sin, cos) per D
    with np.errstate(all="ignore"):     # non-finite results raise below
        phases = _branch_phases(modes, config, distinct, t, trig)
        (s1, c1), (s0, c0) = (trig[distinct.index(seps[b])] for b in ("LR", "LL"))
        np.subtract(s1 * c0, c1 * s0, out=trig[-1, 0])
        np.add(c1 * c0, s1 * s0, out=trig[-1, 1])
        # R u^2 per unit mass^2, not finite where `_branches`' alpha is not
        omega = CONSTANTS.c * k
        weight = (4.0 * np.sin(omega * t / 2) ** 2 * np.exp(-k / modes.kCut)
                  * (CONSTANTS.G * CONSTANTS.c * k * modes.weights
                     / (np.pi * CONSTANTS.hbar)) / omega / omega)
        if not np.isfinite(weight).all():
            raise ValueError("alpha contains non-finite entries")
        total, sums = float(weight.sum()), trig @ weight
    e = {b: complex(*sums[distinct.index(r), ::-1]) for b, r in seps.items()}
    dx = complex(*sums[-1, ::-1])       # sum R u^2 e^{i k dx}
    m1, m2 = config.m1, config.m2
    exponents = {}
    for bi, bj in combinations(BRANCHES, 2):
        a, b = bj, bi                   # sum conj(alpha_a) alpha_b
        # sum R u^2 e^{i k (x_b - x_a)} for mass 1, then for mass 2
        z1, z2 = (total if a[i] == b[i] else dx if b[i] == "R" else dx.conjugate()
                  for i in (0, 1))
        ab, ba = e[a[0] + b[1]], e[b[0] + a[1]]   # x2_b - x1_a, x2_a - x1_b
        exponents[bi, bj] = (
            2.0 * (m1 * m1 * (total - z1.real) + m2 * m2 * (total - z2.real)
                   + m1 * m2 * ((e[a] - ab).real + (e[b] - ba).real)),
            m1 * m1 * z1.imag + m2 * m2 * z2.imag + m1 * m2 * (ab - ba).imag)
    if not np.isfinite(list(exponents.values())).all():
        raise ValueError("branch overlap sums are not finite")
    return {b: phases[r] for b, r in seps.items()}, exponents


def dephase_branch_basis(state: TwoQubitState) -> TwoQubitState:
    """Zero every inter-branch coherence (idempotent)."""
    return TwoQubitState(np.diag(np.diag(state.rho)))


def classicalize(branches: dict[str, BranchDisplacements]) -> TwoQubitState:
    """State of the masses if the field is forced classical: all off-diagonal
    terms in the coherent-state basis destroyed, which kills every
    inter-branch coherence of the matter state.  Negativity is exactly 0."""
    return dephase_branch_basis(reduced_mass_state(branches))
