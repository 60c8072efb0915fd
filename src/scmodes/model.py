"""Circuit Hamiltonian data model.

The Hamiltonian handled throughout this package is

    H = 1/2 (n - C_V V)^T C_inv (n - C_V V)
        - sum_i sign_i E_J_i cos(sum_j J_args[i, j] phi_j)
        + 1/2 phi^T M0 phi + phi^T N Phi_x

in the dimensionless flux/charge operators phi, n (flux in units of
hbar/2e, charge in units of 2e).  All energy-valued matrices (C_inv, M0,
N) carry units of GHz*h; C_V carries Farad/(2e), an inverse voltage.
Planck's constant and the flux quantum never appear at runtime.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Matrices whose relative asymmetry exceeds this are rejected; smaller
# asymmetry (e.g. from low-precision file round trips) is averaged away.
SYMMETRY_RTOL = 1e-9

# Smallest eigenvalue of C_inv must exceed this times its spectral norm.
DEFINITENESS_RTOL = 1e-12


class InvalidHamiltonianError(ValueError):
    """Raised when a CircuitHamiltonian fails a structural or spectral check."""


class ModeKind(Enum):
    JUNCTION = "junction"
    INDUCTOR = "inductor"


def _given(value, default):
    """``value``, or ``default`` when it is absent (None) or empty."""
    return default if value is None or np.size(value) == 0 else value


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a new float array, whose shape as given must match ``shape``.

    A None entry of ``shape`` matches any length.  Nothing is reshaped, so
    a transposed or flattened matrix is rejected rather than rebuilt.
    """
    a = np.array(value, dtype=float)
    if a.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, a.shape)):
        expected = ", ".join("any" if s is None else str(s) for s in shape)
        expected += "," if len(shape) == 1 else ""
        raise InvalidHamiltonianError(f"{name} has shape {a.shape}, expected ({expected})")
    return a


def _symmetrized(a: np.ndarray, name: str) -> np.ndarray:
    scale = np.abs(a).max() if a.size else 0.0
    residual = np.abs(a - a.T).max() if a.size else 0.0
    if residual > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidHamiltonianError(
            f"{name} is not symmetric: max |A - A^T| = {residual:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max entry ({scale:.3e})"
        )
    return (a + a.T) / 2.0


def junction_selectors(kinds) -> np.ndarray:
    """The default ``J_args``: row i selects the flux of the i-th junction mode."""
    junctions = [i for i, k in enumerate(kinds) if k is ModeKind.JUNCTION]
    rows = np.zeros((len(junctions), len(kinds)))
    rows[np.arange(len(junctions)), junctions] = 1.0
    return rows


@dataclass(frozen=True)
class CircuitHamiltonian:
    """Immutable container for one circuit Hamiltonian.

    The one way to build it, from raw inputs and from transformed ones
    alike (``replace``, canonical transforms, free-mode removal).  ``kinds``
    may hold :class:`ModeKind` values or their strings.  A field after
    ``M0`` that is absent (None) or empty takes its default: no external
    fluxes or voltages, no junctions, sign +1 for every junction, and
    ``J_args`` rows that select the junction modes in positional order.
    Every array must have its documented shape as given; nothing is
    reshaped.  C_inv and M0 must be symmetric up to SYMMETRY_RTOL, and the
    rounding asymmetry is averaged away exactly.
    """

    kinds: tuple[ModeKind, ...]
    C_inv: np.ndarray  # (n, n) charge couplings, GHz*h
    M0: np.ndarray     # (n, n) flux couplings, GHz*h
    N: np.ndarray = None       # (n, m_x) external-flux couplings, GHz*h
    C_V: np.ndarray = None     # (n, m_v) voltage couplings, Farad/(2e)
    E_J: np.ndarray = ()       # (n_J,) junction energies, GHz*h
    E_sign: np.ndarray = None  # (n_J,) +1 or -1 per junction
    J_args: np.ndarray = None  # (n_J, n) cosine argument coefficients
    Phi_x: np.ndarray = None   # (m_x,) dimensionless external fluxes
    V: np.ndarray = None       # (m_v,) volts

    def __post_init__(self):
        kinds = tuple(ModeKind(k) for k in self.kinds)
        n, n_J = len(kinds), kinds.count(ModeKind.JUNCTION)
        E_J = np.asarray(_given(self.E_J, ()), dtype=float)
        if E_J.size != n_J:
            raise InvalidHamiltonianError(
                f"{E_J.size} junction energies given for {n_J} junction modes"
            )
        N = _shaped("N", _given(self.N, np.zeros((n, 0))), (n, None))
        C_V = _shaped("C_V", _given(self.C_V, np.zeros((n, 0))), (n, None))
        E_sign = _shaped("E_sign", _given(self.E_sign, np.ones(n_J)), (n_J,))
        if not np.all(np.abs(E_sign) == 1.0):
            raise InvalidHamiltonianError("junction sign flags must be +1 or -1")
        arrays = {
            "C_inv": _shaped("C_inv", self.C_inv, (n, n)),
            "M0": _shaped("M0", self.M0, (n, n)),
            "N": N,
            "C_V": C_V,
            "E_J": _shaped("E_J", E_J, (n_J,)),
            "E_sign": E_sign,
            "J_args": _shaped("J_args", _given(self.J_args, junction_selectors(kinds)), (n_J, n)),
            "Phi_x": _shaped("Phi_x", _given(self.Phi_x, np.zeros(N.shape[1])), (N.shape[1],)),
            "V": _shaped("V", _given(self.V, np.zeros(C_V.shape[1])), (C_V.shape[1],)),
        }
        arrays["C_inv"] = _symmetrized(arrays["C_inv"], "C_inv")
        arrays["M0"] = _symmetrized(arrays["M0"], "M0")
        object.__setattr__(self, "kinds", kinds)
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.kinds)

    @property
    def n_J(self) -> int:
        return sum(1 for k in self.kinds if k is ModeKind.JUNCTION)

    @property
    def n_L(self) -> int:
        return self.n - self.n_J

    @property
    def junction_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is ModeKind.JUNCTION)

    @property
    def inductor_indices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is ModeKind.INDUCTOR)

    def replace(self, **changes) -> "CircuitHamiltonian":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(H: CircuitHamiltonian) -> ValidationReport:
    """Check that C_inv is positive definite and M0 positive semidefinite.

    Report-only; see :func:`require_valid` for the raising form used by
    the library's entry points.  Symmetry and shapes need no check here:
    construction rejects asymmetric matrices, symmetrizes the rest
    exactly, and rejects inconsistent shapes.
    """
    checks = []

    def add(name, value, threshold, passed):
        checks.append(ValidationCheck(name, float(value), float(threshold), bool(passed)))

    c_eigs = np.linalg.eigvalsh(H.C_inv)
    c_floor = DEFINITENESS_RTOL * np.abs(c_eigs).max()
    add("C_inv_positive_definite", c_eigs[0], c_floor, c_eigs[0] > c_floor)

    m_eigs = np.linalg.eigvalsh(H.M0)
    m_floor = -DEFINITENESS_RTOL * max(np.abs(m_eigs).max(), 1e-300)
    add("M0_positive_semidefinite", m_eigs[0], m_floor, m_eigs[0] >= m_floor)
    return ValidationReport(tuple(checks))


def require_valid(H: CircuitHamiltonian) -> None:
    report = validate(H)
    if not report.ok:
        bad = ", ".join(
            f"{c.name} (value {c.value:.3e}, threshold {c.threshold:.3e})"
            for c in report.failures()
        )
        raise InvalidHamiltonianError(f"Hamiltonian failed validation: {bad}")
