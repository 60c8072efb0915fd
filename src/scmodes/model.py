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


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _symmetrized(a: np.ndarray, name: str) -> np.ndarray:
    scale = np.abs(a).max() if a.size else 0.0
    residual = np.abs(a - a.T).max() if a.size else 0.0
    if residual > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidHamiltonianError(
            f"{name} is not symmetric: max |A - A^T| = {residual:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max entry ({scale:.3e})"
        )
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class CircuitHamiltonian:
    """Immutable container for one circuit Hamiltonian.

    Use :meth:`create` to build one from raw inputs; the plain constructor
    is for internal use by canonical transforms, which produce non-selector
    ``J_args`` rows.
    """

    kinds: tuple[ModeKind, ...]
    C_inv: np.ndarray  # (n, n) charge couplings, GHz*h
    M0: np.ndarray     # (n, n) flux couplings, GHz*h
    N: np.ndarray      # (n, m_x) external-flux couplings, GHz*h
    C_V: np.ndarray    # (n, m_v) voltage couplings, Farad/(2e)
    E_J: np.ndarray    # (n_J,) junction energies, GHz*h
    E_sign: np.ndarray  # (n_J,) +1 or -1 per junction
    J_args: np.ndarray  # (n_J, n) cosine argument coefficients
    Phi_x: np.ndarray  # (m_x,) dimensionless external fluxes
    V: np.ndarray      # (m_v,) volts

    def __post_init__(self):
        kinds = tuple(self.kinds)
        n = len(kinds)
        set_ = object.__setattr__
        set_(self, "kinds", kinds)
        set_(self, "C_inv", _frozen(_symmetrized(np.asarray(self.C_inv, dtype=float), "C_inv")))
        set_(self, "M0", _frozen(_symmetrized(np.asarray(self.M0, dtype=float), "M0")))
        set_(self, "N", _frozen(np.asarray(self.N, dtype=float).reshape(n, -1)))
        set_(self, "C_V", _frozen(np.asarray(self.C_V, dtype=float).reshape(n, -1)))
        set_(self, "E_J", _frozen(self.E_J))
        set_(self, "E_sign", _frozen(self.E_sign))
        set_(self, "J_args", _frozen(np.asarray(self.J_args, dtype=float).reshape(len(self.E_J), n)))
        set_(self, "Phi_x", _frozen(self.Phi_x))
        set_(self, "V", _frozen(self.V))
        self._check_dimensions()

    @classmethod
    def create(
        cls,
        kinds,
        C_inv,
        M0,
        N=None,
        C_V=None,
        E_J=(),
        E_sign=None,
        Phi_x=None,
        V=None,
    ) -> "CircuitHamiltonian":
        """Build a Hamiltonian with identity-selector junction rows.

        ``E_J[i]`` is assigned to the i-th junction mode in positional
        order; its cosine argument is that mode's flux operator.
        """
        kinds = tuple(ModeKind(k) if not isinstance(k, ModeKind) else k for k in kinds)
        n = len(kinds)
        junctions = [i for i, k in enumerate(kinds) if k is ModeKind.JUNCTION]
        E_J = np.asarray(E_J, dtype=float)
        if len(junctions) != E_J.size:
            raise InvalidHamiltonianError(
                f"{E_J.size} junction energies given for {len(junctions)} junction modes"
            )
        if E_sign is None:
            E_sign = np.ones(E_J.size)
        E_sign = np.asarray(E_sign, dtype=float)
        if not np.all(np.abs(E_sign) == 1.0):
            raise InvalidHamiltonianError("junction sign flags must be +1 or -1")
        J_args = np.zeros((E_J.size, n))
        for row, mode in enumerate(junctions):
            J_args[row, mode] = 1.0
        if N is None:
            N = np.zeros((n, 0))
        if C_V is None:
            C_V = np.zeros((n, 0))
        N = np.asarray(N, dtype=float).reshape(n, -1)
        C_V = np.asarray(C_V, dtype=float).reshape(n, -1)
        if Phi_x is None:
            Phi_x = np.zeros(N.shape[1])
        if V is None:
            V = np.zeros(C_V.shape[1])
        return cls(kinds, C_inv, M0, N, C_V, E_J, E_sign, J_args, Phi_x, V)

    def _check_dimensions(self):
        n = self.n
        checks = [
            (self.C_inv.shape == (n, n), f"C_inv shape {self.C_inv.shape} != ({n}, {n})"),
            (self.M0.shape == (n, n), f"M0 shape {self.M0.shape} != ({n}, {n})"),
            (self.N.shape[0] == n, f"N has {self.N.shape[0]} rows, expected {n}"),
            (self.C_V.shape[0] == n, f"C_V has {self.C_V.shape[0]} rows, expected {n}"),
            (self.E_J.shape == (self.n_J,), "one E_J per junction mode required"),
            (self.E_sign.shape == self.E_J.shape, "one sign flag per junction required"),
            (self.J_args.shape == (self.n_J, n), "J_args must be (n_J, n)"),
            (self.Phi_x.shape == (self.N.shape[1],), "Phi_x length must match N columns"),
            (self.V.shape == (self.C_V.shape[1],), "V length must match C_V columns"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidHamiltonianError(msg)

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
