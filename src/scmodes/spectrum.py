"""Low-energy spectra in truncated per-mode eigenbases.

Each mode gets a primitive basis (harmonic oscillator or charge states),
its local Hamiltonian is densely diagonalized there, and the lowest
``keep`` eigenstates are retained, one eigh and one projection P^H X P
for every mode.  Charge states are parity-adapted, so that the charge
operator is i times a real matrix, as a harmonic mode's is, and a mode
without a drive has a real Hamiltonian and adds nothing complex to the
operator.  The coupled Hamiltonian is assembled in the product of the
retained bases as a sum of tensor products of local operators, applied
matrix-free.  Small systems, and requests for more than a fifth of the
levels, are materialized and solved densely; for an operator whose
couplings are all cosines, small means below its measured crossover with
LOBPCG, which grows with the number of levels asked for.  Larger ones
whose couplings are all cosines go through scipy's LOBPCG with the
product diagonal, the summed local energies, as preconditioner: each
cosine coupling is bounded by its junction energy at every cutoff, so in
a decoupled basis the diagonal is nearly the whole operator.  Larger ones
with quadratic couplings, which grow with the cutoff, go through ARPACK.
A sequence of solves at growing or shrinking cutoffs (the adaptive
search, a cutoff sweep) starts each iterative solve from the previous
solution, carried over by ``embed``.

Couplings come in two kinds: quadratic charge/flux pairs from the
off-diagonal entries of C_inv and M0, and residual cosine couplings
cos(sum_j a_j phi_j) - sum_j cos(a_j phi_j) produced when a junction
argument spreads over several modes.  The quadratic pairs of one kind
form one term, sum_{i<j} c_ij A_i A_j with A the modes' charge or flux
operators, applied as sum_i A_i (sum_j c_ij A_j psi) so that each A_j psi
is computed once.  A multi-mode cosine is the term (X + X^H)/2 with X the
tensor product of per-mode phase factors exp(i a phi).  The single-mode
parts of all cosine couplings are summed into one matrix per mode.
Every term applies one d x d matrix at a time along one axis of a
contiguous array and adds its result into the output in place.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .model import CircuitHamiltonian, require_valid

# Cosine-argument coefficients at or below this are dropped, by
# split_cosine_row alone, from the local and the coupling parts alike.  It
# is absolute because a coefficient multiplies a dimensionless flux: as
# |cos(x + a phi_m) - cos(x)| <= |a| |phi_m|, dropping a changes that
# junction's term by at most E_J |a| max|phi_m| on the retained states,
# whatever the row's other entries.  A bound relative to the row would
# drop larger coefficients from rows that have one large entry.
COEFF_DROP_TOL = 1e-10

# Quadratic couplings below this (relative to the largest entry of the
# respective matrix) are dropped from the assembled operator.
COUPLING_DROP_RTOL = 1e-12

DENSE_LIMIT = 4096

# An operator whose couplings are all cosines is solved densely only up to
# max(_COSINE_DENSE_FLOOR, _COSINE_DENSE_PER_LEVEL * k) dimensions, and
# never above DENSE_LIMIT: its measured crossover with LOBPCG, whose cost
# grows with k while dense eigh's does not.  On the fs fluxonium pair (one
# BLAS thread) dense won at 256 dims and k = 4 (6.6 against 9.0 ms) and
# lost at 432 (21 against 9.2 ms) and at 1 344 (366 against 18 ms); at
# k = 20 the two tied at 864 dims, at k = 50 dense won at 1 024.  LOBPCG
# also missed its tolerance at dim / k of 27 to 35 (k = 50 at 1 344 and
# 1 600 dims, k = 72 at 2 500), which 50 dims per level keep dense.
_COSINE_DENSE_FLOOR = 320
_COSINE_DENSE_PER_LEVEL = 50

SOLVE_TOL = 1e-9  # default eigensolver tolerance

ADAPTIVE_EPSILON = 1e-17  # default population threshold of adaptive_cutoffs

# An eigenpair whose residual ||H v - E v|| exceeds this many solver
# tolerances (at least machine epsilon), times max(1, |E|), is rejected.
RESIDUAL_FACTOR = 100

# A default primitive basis is sized for max(keep, _MIN_KEEP) retained
# states: four oscillator states or two charges of each sign per state.
# The builder of make_locals_builder retains at least this many.
_MIN_KEEP = 50

# Fixed seed of the iterative solvers' random start vectors, so that
# commands are reproducible.  Without a start ARPACK's is the whole starting
# vector; otherwise it is the admixture below.
_START_SEED = 7

# A start's weight on a state it misses, relative to the start's norm (of
# each column, for LOBPCG).  A start can lie wholly in one symmetry sector,
# and a Krylov or block solver then converges to that sector's levels
# only, with small residuals; a 1e-6 random part lets it reach the others
# at a few percent more matvecs than none.
_START_ADMIXTURE = 1e-6

# LOBPCG iterations before a solve counts as failed.  One iteration applies
# H to at most k vectors; the solves of the test suite take at most 26.
_LOBPCG_MAX_ITER = 200


class BasisMismatchError(ValueError):
    """A mode's primitive basis cannot represent a requested term."""


class EigensolverConvergenceError(RuntimeError):
    """An eigensolve did not converge or returned pairs with residuals above
    the bound; carries the residuals of the pairs it has."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class CutoffLimitError(RuntimeError):
    """Adaptive cutoff search hit d_max on some mode, or ran out of rounds."""


def _check_integer(name: str, value) -> None:
    """The integer rule of k, state and mode: an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} = {value!r} must be an integer")


def _check_cutoff(mode: int, d, available: int) -> None:
    """The one cutoff rule: an integer d (not a bool) of retained states in [1, available]."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or not 1 <= d <= available:
        raise ValueError(f"mode {mode}: cutoff {d!r} must be an integer in [1, {available}]")


@dataclass(frozen=True)
class CosineCoupling:
    """Residual coupling -sign*energy*[cos(sum a_j phi_j) - sum cos(a_j phi_j)]."""

    modes: tuple[int, ...]
    coeffs: tuple[float, ...]
    energy: float
    sign: float


def split_cosine_row(
    row: np.ndarray, energy: float, sign: float
) -> tuple[list[tuple[int, float]], CosineCoupling | None]:
    """Local cosine terms and the residual coupling for one junction row."""
    idx = np.nonzero(np.abs(row) > COEFF_DROP_TOL)[0]
    local_terms = [(int(i), float(row[i])) for i in idx]
    if len(local_terms) < 2:
        return local_terms, None
    coupling = CosineCoupling(
        modes=tuple(i for i, _ in local_terms),
        coeffs=tuple(a for _, a in local_terms),
        energy=energy,
        sign=sign,
    )
    return local_terms, coupling


@dataclass(frozen=True)
class LocalMode:
    """One mode's truncated eigenbasis and its operators therein.

    Every operator is a primitive-basis matrix X projected as P^H X P onto
    the retained eigenvectors P (see :func:`build_local_mode`).
    ``phase_factors[a]`` holds exp(i*a*phi), one key per cosine coefficient
    of the mode as :func:`split_cosine_row` gives it and no other, since
    exp(-i*a*phi) is its conjugate transpose.  ``phi_op`` is None exactly
    for charge-basis modes, whose compact phase has no flux operator, so it
    also records the basis kind.
    """

    mode_index: int
    energies: np.ndarray
    phi_op: np.ndarray | None
    n_op: np.ndarray
    phase_factors: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    @property
    def real_basis(self) -> bool:
        """Whether the quadratic factors are real arrays once :func:`_phase_split`
        takes their phase: phi_op real where present, n_op real or imaginary.
        Read by the flop model of ``bench/layers.py``."""
        return (self.phi_op is None or np.isrealobj(self.phi_op)) and np.isrealobj(
            _phase_split(self.n_op)[1]
        )

    def phase_factor(self, a: float) -> np.ndarray:
        """exp(i*a*phi) for a key ``a`` exactly as :func:`split_cosine_row` gave it."""
        if a not in self.phase_factors:
            raise BasisMismatchError(
                f"mode {self.mode_index} has no phase factor for coefficient {a!r}"
            )
        return self.phase_factors[a]

    def truncated(self, d: int) -> "LocalMode":
        """The same mode restricted to its lowest d retained states."""
        _check_cutoff(self.mode_index, d, self.dim)
        return LocalMode(
            mode_index=self.mode_index,
            energies=self.energies[:d],
            phi_op=None if self.phi_op is None else self.phi_op[:d, :d],
            n_op=self.n_op[:d, :d],
            phase_factors={a: m[:d, :d] for a, m in self.phase_factors.items()},
        )


def build_local_mode(
    H: CircuitHamiltonian,
    mode: int,
    primitive_dim: int | None = None,
    keep: int = 10,
) -> LocalMode:
    """Diagonalize one mode's local Hamiltonian and retain its lowest states.

    The local Hamiltonian is
    1/2 C_inv_ii n^2 + 1/2 M0_ii phi^2 + (N Phi_x)_i phi
    - sum_r sign_r E_J_r cos(a_r phi) - (C_inv C_V V)_i n
    with the cosine sum running over the local terms :func:`split_cosine_row`
    gives this mode.  The primitive basis is decided from H alone.  A mode
    with a diagonal flux term, M0_ii > 1e-10 * max(1, max|M0|), gets the
    harmonic-oscillator basis of 1/2 C_inv_ii n^2 + 1/2 M0_ii phi^2 with
    4 * max(keep, 50) states; any other mode gets the charge states
    -2 * max(keep, 50) .. 2 * max(keep, 50).  ``primitive_dim`` overrides
    the size: that many oscillator states, or charges +-(primitive_dim - 1)//2.
    Phase factors exp(i*a*phi) are prepared for every local cosine
    coefficient, and in both bases each local cos(a*phi) enters as the
    real part of its phase factor.  The oscillator forms exp(i*a*phi) from
    the real products U cos(a x) U^T and U sin(a x) U^T over the
    eigendecomposition U diag(x) U^T of phi, so that this real part is
    the cosine matrix itself, not the real part of one complex product,
    which differs by rounding.  ``keep`` must be an integer in [1, dim]
    (``ValueError``).  A charge-basis mode takes no linear flux term and
    only nonzero integer cosine coefficients (:class:`BasisMismatchError`).

    Every mode takes one eigh of its primitive Hamiltonian, whose lowest
    ``keep`` eigenvectors P project each operator X as P^H X P.  The charge
    states are parity-adapted: e_0, (e_m + e_-m)/sqrt(2) and
    i (e_m - e_-m)/sqrt(2).  There an operator even under n -> -n is real
    and block-diagonal and an odd one, n, is i times a real matrix, both
    with exact zero blocks.  Without a drive a charge-basis Hamiltonian is
    even (integer cosine shifts are symmetric, and a linear flux term is
    refused), so P is real, n_op is i times a real matrix, as on a
    harmonic mode, and each phase factor is complex symmetric: the mode
    adds nothing complex to the assembled operator.  A drive, -drive * n,
    makes the primitive Hamiltonian and P complex.
    """
    c_ii, m_ii = float(H.C_inv[mode, mode]), float(H.M0[mode, mode])
    harmonic = m_ii > 1e-10 * max(1.0, np.abs(H.M0).max())
    if harmonic:
        dim = primitive_dim or 4 * max(keep, _MIN_KEEP)
    else:
        if primitive_dim is None:
            max_charge = 2 * max(keep, _MIN_KEEP)
        else:
            max_charge = max(1, (primitive_dim - 1) // 2)
        dim = 2 * max_charge + 1
    _check_cutoff(mode, keep, dim)
    flux_lin = float((H.N @ H.Phi_x)[mode]) if H.Phi_x.size else 0.0
    drive = float((H.C_inv @ (H.C_V @ H.V))[mode]) if H.V.size else 0.0
    cos_terms = []
    for r in range(H.n_J):
        energy, sign = float(H.E_J[r]), float(H.E_sign[r])
        local_terms, _ = split_cosine_row(H.J_args[r], energy, sign)
        cos_terms += [(energy, sign, a) for m, a in local_terms if m == mode]

    # Each basis gives H_prim without cosines and drive, phi (None in the
    # charge basis), n, and exp(i*a*phi) as a function of a, whose real part
    # is cos(a*phi).
    if harmonic:
        z = np.sqrt(c_ii / m_ii)  # impedance
        ladder = np.diag(np.sqrt(np.arange(1, dim)), 1)  # annihilation
        phi = np.sqrt(z / 2.0) * (ladder + ladder.T)
        n = 1j * (np.sqrt(1.0 / (2.0 * z)) * (ladder.T - ladder))
        H_prim = np.diag(np.sqrt(c_ii * m_ii) * (np.arange(dim) + 0.5)) + flux_lin * phi
        xs, U = np.linalg.eigh(phi)
        exp = lambda a: (U * np.cos(a * xs)) @ U.T + 1j * ((U * np.sin(a * xs)) @ U.T)  # noqa: E731
    else:
        if flux_lin != 0.0:
            raise BasisMismatchError(
                f"mode {mode} carries a linear flux term that the charge basis cannot represent"
            )
        for _, _, a in cos_terms:
            if abs(a - round(a)) > 1e-9 or round(a) == 0:
                raise BasisMismatchError(
                    f"mode {mode}: cosine coefficient {a!r} is not a nonzero integer; "
                    "the charge basis supports integer phase shifts only"
                )
        # The parity-adapted states are B = Q diag(u), Q real and u 1 on the
        # even and i on the odd states, so (B^H X B)_kl is conj(u_k) u_l
        # (Q^T X Q)_kl: 1 within a sector and +-i across.  An operator even
        # under n -> -n couples states within a sector alone, an odd one
        # across alone, and masking the real Q^T X Q makes the other blocks
        # exact zeros.
        eye = np.eye(dim)
        Q = np.hstack([(eye + eye[::-1])[:, max_charge:], (eye - eye[::-1])[:, max_charge + 1:]])
        Q /= np.linalg.norm(Q, axis=0)
        odd = np.arange(dim) > max_charge
        within = odd == odd[:, None]
        across = 1j * (odd.astype(float) - odd[:, None])
        charges = np.arange(-max_charge, max_charge + 1, dtype=float)
        phi = None
        n = across * ((Q.T * charges) @ Q)
        H_prim = within * ((Q.T * (0.5 * c_ii * charges**2)) @ Q)
        # exp(i*a*phi): |m> -> |m + a>
        exp = lambda a: (within + across) * (Q.T @ np.eye(dim, k=-round(a)) @ Q)  # noqa: E731

    phases = {a: exp(a) for a in sorted({a for _, _, a in cos_terms})}
    for energy, sign, a in cos_terms:
        H_prim -= sign * energy * phases[a].real
    if drive != 0.0:
        H_prim = H_prim - drive * n
    evals, evecs = np.linalg.eigh(H_prim)
    P = evecs[:, :keep]
    project = lambda X: P.conj().T @ X @ P  # noqa: E731
    return LocalMode(
        mode_index=mode,
        energies=evals[:keep],
        phi_op=None if phi is None else project(phi),
        n_op=project(n),
        phase_factors={a: project(e) for a, e in phases.items()},
    )


@dataclass(frozen=True)
class CouplingSet:
    """Cross-mode terms: quadratic charge/flux pairs plus cosine residuals."""

    charge: tuple[tuple[int, int, float], ...]
    flux: tuple[tuple[int, int, float], ...]
    cosines: tuple[CosineCoupling, ...]

    @classmethod
    def from_hamiltonian(cls, H: CircuitHamiltonian) -> "CouplingSet":
        def pairs(mat):
            floor = COUPLING_DROP_RTOL * max(1.0, np.abs(mat).max())
            out = []
            for i in range(H.n):
                for j in range(i + 1, H.n):
                    if abs(mat[i, j]) > floor:
                        out.append((i, j, float(mat[i, j])))
            return tuple(out)

        cosines = []
        for r in range(H.n_J):
            _, coupling = split_cosine_row(H.J_args[r], float(H.E_J[r]), float(H.E_sign[r]))
            if coupling is not None:
                cosines.append(coupling)
        return cls(charge=pairs(H.C_inv), flux=pairs(H.M0), cosines=tuple(cosines))


def _apply_axis(mat: np.ndarray, psi: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """mat applied along ``axis`` of psi, written into ``out`` and returned.

    psi and ``out`` (C-contiguous, of one shape) are viewed as (L, d, R)
    around the axis, so no operand is transposed or copied: one gemm
    (L, d) x (d, d) when R is 1, else a batched matmul over L, which is one
    gemm when L is 1.
    """
    shape = psi.shape
    d = shape[axis]
    left, right = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    if right == 1:
        np.matmul(psi.reshape(left, d), mat.T, out=out.reshape(left, d))
    else:
        np.matmul(mat, psi.reshape(left, d, right), out=out.reshape(left, d, right))
    return out


class _Scratch:
    """The one source of a product's full-size arrays, handed out by dtype.

    One lives for one product H psi.  Every full-size array the product
    needs, a cast of psi included, is taken from it and given back once
    no term reads it, so that later terms write into the arrays of
    earlier ones instead of allocating their own.
    """

    def __init__(self, shape):
        self.shape = shape
        self._free: dict[np.dtype, list[np.ndarray]] = {}

    def take(self, dtype) -> np.ndarray:
        free = self._free.get(np.dtype(dtype))
        return free.pop() if free else np.empty(self.shape, dtype)

    def give(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            self._free.setdefault(a.dtype, []).append(a)


def _apply_factors(factors, psi: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """prod_j mat_j applied to psi, each mat_j along axis_j, into a scratch array;
    a real vector meets a complex factor as a scratch copy, never cast by matmul."""
    w = psi
    for axis, mat in factors:
        dtype = np.result_type(mat, w)
        if w.dtype != dtype:
            v = scratch.take(dtype)
            v[...] = w
            if w is not psi:
                scratch.give(w)
            w = v
        v = _apply_axis(mat, w, axis, scratch.take(dtype))
        if w is not psi:
            scratch.give(w)
        w = v
    return w


def _axpy(a: complex, x: np.ndarray, y: np.ndarray) -> None:
    """y += a * x in place, for C-contiguous x and y of one dtype."""
    scipy.linalg.get_blas_funcs("axpy", (y,))(x.reshape(-1), y.reshape(-1), a=a)


def _phase_split(mat: np.ndarray) -> tuple[complex, np.ndarray]:
    """(phase, A) with mat = phase * A, A real when mat is real or imaginary.

    Folding the phase of n = i*A into a coefficient keeps the factor real.
    """
    if np.isrealobj(mat):
        return 1.0, np.ascontiguousarray(mat)
    floor = 1e-14 * max(1.0, np.abs(mat).max())
    if np.abs(mat.real).max() <= floor:
        return 1j, np.ascontiguousarray(mat.imag)
    if np.abs(mat.imag).max() <= floor:
        return 1.0, np.ascontiguousarray(mat.real)
    return 1.0, mat


class _Term:
    """coeff * X, or its Hermitian part (Y + Y^H)/2 with Y = coeff * X given
    ``hermitian``; X = prod_j mat_j on axis_j, coeff a real or complex scalar.

    The coefficient is folded into the first factor.  When every factor is
    complex symmetric, Y^H = conj(Y), so on a real vector the Hermitian part
    is Re(Y psi): one complex product instead of two.
    """

    def __init__(self, factors, coeff=1.0, hermitian=False):
        (m0, e0), *rest = factors
        self.factors = ((m0, coeff * e0), *rest)
        self.adjoint = tuple((m, e.conj().T) for m, e in self.factors) if hermitian else None
        self.symmetric = hermitian and all(
            np.abs(e - e.T).max() <= 1e-12 * max(1.0, np.abs(e).max()) for _, e in factors
        )

    @property
    def is_real(self) -> bool:
        return self.symmetric or all(np.isrealobj(m) for _, m in self.factors)

    def apply(self, psi: np.ndarray, out: np.ndarray, scratch: _Scratch) -> None:
        """out += the term applied to psi."""
        w = _apply_factors(self.factors, psi, scratch)
        if self.adjoint is None:
            out += w
        elif self.symmetric and np.isrealobj(psi):
            out += w.real
        else:
            v = _apply_factors(self.adjoint, psi, scratch)
            w += v
            scratch.give(v)
            w *= 0.5
            out += w
        scratch.give(w)


class _QuadraticForm:
    """sum_{i<j} c_ij A_i A_j over the pairs of one coupling kind, A_i on axis i.

    Applied as sum_i A_i (sum_j c_ij Y_j), each row sum a scratch array and
    each Y_j = A_j psi computed once and handed back to the scratch right
    after its last read, for the row's product to reuse.  A
    _Term per pair would apply both of its factors: on the undecoupled
    fluxonium pair (10 charge and 6 flux pairs over 5 modes) that is 32
    single-axis products per matvec, here 16, and with the contiguous
    kernel a d = 9 matvec (59 049 dims, one BLAS thread) went from 12-17 ms
    to 2.5-3.1 ms, and d = 14 (537 824 dims) from 124-126 ms to 34-41 ms.
    ``rows`` holds (i, ((j, c), ...)), one row per mode, with c_ij times the
    phases of A_i and A_j: a real or complex scalar.  The factors share one
    dtype, the result type of the factors and the coefficients.
    """

    def __init__(self, locals_: list[LocalMode], attr: str, pairs):
        """The pairs (i, j, coeff) of one kind; A_m is the ``attr`` operator of
        mode m less its phase, which goes into the coefficients."""
        split, by_row = {}, {}
        for i, j, coeff in pairs:
            for mode in (i, j):
                op = getattr(locals_[mode], attr)
                if op is None:
                    raise BasisMismatchError(
                        f"flux coupling ({i}, {j}) touches charge-basis mode {mode}, "
                        "which has no flux operator"
                    )
                if mode not in split:
                    split[mode] = _phase_split(op)
            c = coeff * split[i][0] * split[j][0]
            by_row.setdefault(i, []).append((j, c if c.imag else c.real))
        self._dtype = np.result_type(
            *(a for _, a in split.values()), *(c for row in by_row.values() for _, c in row)
        )
        self.mats = {m: a.astype(self._dtype, copy=False) for m, (_, a) in split.items()}
        self._last = {j: r for r, row in enumerate(by_row.values()) for j, _ in row}
        self.rows = tuple(by_row.items())

    @property
    def is_real(self) -> bool:
        return self._dtype.kind == "f"

    def apply(self, psi: np.ndarray, out: np.ndarray, scratch: _Scratch) -> None:
        """out += the form applied to psi."""
        dtype = np.result_type(self._dtype, psi)
        ys = {}
        for r, (i, pairs) in enumerate(self.rows):
            s = None
            for j, c in pairs:
                if j not in ys:
                    ys[j] = _apply_factors(((j, self.mats[j]),), psi, scratch)
                if s is None:
                    s = np.multiply(ys[j], c, out=scratch.take(dtype))
                else:
                    _axpy(c, ys[j], s)
                if self._last[j] == r:
                    scratch.give(ys.pop(j))
            w = _apply_axis(self.mats[i], s, i, scratch.take(dtype))
            out += w
            scratch.give(w, s)


class ProductOperator:
    """Hermitian operator on a tensor-product space, applied matrix-free.

    It is a diagonal, the summed local energies shaped by the modes' cutoffs,
    plus a list of terms: one quadratic form per coupling kind, each
    multi-mode cosine coupling as the Hermitian part of a tensor product of
    per-mode matrices, and one matrix per mode for the single-mode cosine
    parts.  Every other fact follows from these two and is set here alone:
    ``dims`` (a tuple of ints) and ``dim`` from the diagonal's shape,
    ``dtype`` float64 when every term is real and complex128 otherwise,
    ``quadratic`` whether a quadratic form survived among the terms, and
    ``diagonal``, the flat diagonal as a read-only view.
    """

    def __init__(self, diag: np.ndarray, terms):
        self.dims = tuple(int(d) for d in diag.shape)
        self.dim = int(diag.size)
        self.dtype = np.float64 if all(t.is_real for t in terms) else np.complex128
        self.quadratic = any(isinstance(t, _QuadraticForm) for t in terms)
        self.diagonal = diag.reshape(-1)
        self.diagonal.flags.writeable = False
        self._diag = diag[..., np.newaxis]  # shaped ``dims + (1,)``
        self._terms = terms  # list of _QuadraticForm and _Term

    def _apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi for psi shaped ``dims + (batch,)``; each term adds into one output."""
        psi = np.ascontiguousarray(psi)
        out = np.empty(psi.shape, np.promote_types(self.dtype, psi.dtype))
        np.multiply(self._diag, psi, out=out)
        scratch = _Scratch(psi.shape)
        for term in self._terms:
            term.apply(psi, out, scratch)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(v).reshape(self.dims + (1,))).reshape(-1)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        V = np.asarray(V)
        return self._apply(V.reshape(self.dims + (V.shape[1],))).reshape(self.dim, -1)

    def to_dense(self) -> np.ndarray:
        """The matrix in the product basis, of the operator's dtype.

        The identity is real so that real factors are applied in real
        arithmetic, and each symmetric cosine term as one product.
        """
        return self.matmat(np.eye(self.dim))


def assemble_hamiltonian(
    locals_: list[LocalMode],
    H: CircuitHamiltonian,
    couplings: CouplingSet,
) -> ProductOperator:
    """Assemble the coupled Hamiltonian in the retained product basis.

    The diagonal is the outer sum of the local energies, E_0 + E_1 + ...
    added left to right; with one mode it is that mode's energies array
    itself, which the operator only reads.  The terms are one
    :class:`_QuadraticForm` per coupling kind with pairs, one Hermitian
    :class:`_Term` per multi-mode cosine coupling and one per mode for the
    summed single-mode cosine parts.  The operator works out its shape,
    dtype and coupling kind from these two (:class:`ProductOperator`).
    """
    if len(locals_) != H.n or any(loc.mode_index != m for m, loc in enumerate(locals_)):
        raise ValueError("one LocalMode per mode, ordered by mode index, is required")
    diag = functools.reduce(np.add.outer, [loc.energies for loc in locals_])

    terms: list = [
        _QuadraticForm(locals_, attr, pairs)
        for attr, pairs in (("n_op", couplings.charge), ("phi_op", couplings.flux))
        if pairs
    ]

    # pre * [(X + X^H)/2 - sum_j (e_j + e_j^H)/2] per cosine row, X = prod_j e_j;
    # the single-mode parts are summed into one matrix per mode.
    single = {}
    for cc in couplings.cosines:
        pre = -cc.sign * cc.energy
        factors = tuple((m, locals_[m].phase_factor(a)) for m, a in zip(cc.modes, cc.coeffs))
        for m, e in factors:
            single[m] = single.get(m, 0.0) - pre * (e + e.conj().T) / 2
        terms.append(_Term(factors, pre, hermitian=True))
    for m in sorted(single):
        phase, mat = _phase_split(single[m])
        terms.append(_Term(((m, mat),), phase))
    return ProductOperator(diag, terms)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray   # (k,) ascending, GHz*h
    eigenvectors: np.ndarray  # (dim, k) columns in the product basis
    cutoffs: tuple[int, ...]
    residuals: np.ndarray     # (k,) ||H v - E v||


def _residuals(op: ProductOperator, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """||H v - E v|| for each column v of ``evecs``."""
    return np.linalg.norm(op.matmat(evecs) - evecs * evals, axis=0)


def _lobpcg(op: ProductOperator, k: int, tol: float, start) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of op by scipy's LOBPCG (Knyazev 2001).

    The start block holds the columns of ``start`` that are independent of
    the ones before them (LOBPCG stalls on dependent ones, such as copies
    of one vector), then unit vectors at the lowest entries of the product
    diagonal D: k orthonormal columns, each plus a seeded random part of
    _START_ADMIXTURE.  The preconditioner is (D - D_min + g)^-1, g the
    smallest gap of D above its minimum.  H is applied one ``matvec`` per
    column, which costs less per vector than ``matmat`` at widths 1 to 8.
    LOBPCG's tolerance bounds every residual norm, so tol itself meets
    tol * max(1, |E|) whatever the eigenvalue E.  A miss, which LOBPCG
    reports by a warning and its best iterate, raises
    :class:`EigensolverConvergenceError` with the k residuals.
    """
    diag = op.diagonal
    cols = np.zeros((op.dim, 0)) if start is None else np.asarray(start).reshape(op.dim, -1)[:, :k]
    lowest = np.argpartition(diag, k - 1)[:k]
    units = np.zeros((op.dim, k), op.dtype)
    units[lowest[np.argsort(diag[lowest], kind="stable")], np.arange(k)] = 1.0
    block = np.hstack([cols, units])
    Q, R = scipy.linalg.qr(block, mode="economic")
    X = Q[:, np.abs(R.diagonal()) > 1e-8 * np.linalg.norm(block, axis=0)][:, :k]
    noise = np.random.default_rng(_START_SEED).standard_normal((op.dim, k))
    X += noise * (_START_ADMIXTURE / np.linalg.norm(noise, axis=0))

    # a gap of rounding size (two equal local ground states) is no gap
    dmin = diag.min()
    above = diag[diag > dmin + 1e-12 * max(1.0, abs(dmin))]
    shifted = diag - dmin + (above.min() - dmin if above.size else 1.0)
    with warnings.catch_warnings(record=True) as missed:
        warnings.simplefilter("always")
        evals, X = scipy.sparse.linalg.lobpcg(
            lambda V: np.stack([op.matvec(v) for v in V.T], axis=1), X,
            M=lambda V: V / shifted[:, None], tol=tol, maxiter=_LOBPCG_MAX_ITER, largest=False,
        )
    if missed:
        raise EigensolverConvergenceError(
            f"LOBPCG did not converge within {_LOBPCG_MAX_ITER} iterations",
            residuals=_residuals(op, evals, X),
        )
    return evals, X


def eigensolve(
    op: ProductOperator, k: int, tol: float = SOLVE_TOL, start: np.ndarray | None = None
) -> SpectrumResult:
    """k lowest eigenpairs by one of three branches, chosen from op and k.

    - Dense ``eigh`` of the materialized operator as built, k pairs only
      (``eigh`` reads one triangle), when k > dim / 5 or when dim is at
      most the operator's dense limit.  Above a fifth of the levels LOBPCG
      would itself fall back to a dense solve, one matvec per unit vector,
      and ARPACK's 2k + 1 Krylov vectors would span over two fifths of
      the space.  The dense limit is DENSE_LIMIT for an operator with a
      quadratic coupling; for one whose couplings are all cosines it is
      the measured crossover with LOBPCG, max(320, 50 k) capped at
      DENSE_LIMIT (see _COSINE_DENSE_PER_LEVEL).
    - Otherwise, when every coupling is a cosine (no quadratic form):
      LOBPCG (:func:`_lobpcg`), preconditioned by the product diagonal.
      A cosine coupling is bounded by its junction energy at every cutoff,
      so the diagonal stays a good approximation of the operator however
      large the cutoffs grow.  Each pair meets
      ||H v - E v|| <= tol * max(1, |E|).
    - Otherwise, with quadratic couplings: ARPACK.  A quadratic coupling
      grows with the cutoff, as the charge and flux operators do, so the
      diagonal preconditions poorly: with k = 4 LOBPCG took 1.8-1.9
      times ARPACK's time on the undecoupled fluxonium pair at 7 776 to
      32 768 dims and 1.1 times on its SAD form at 32 768.  Such an
      operator stays dense up to DENSE_LIMIT because neither iterative
      solver is safe there: LOBPCG did not converge on the undecoupled
      pair at k = 10 (576 to 3 125 dims), and ARPACK's single-vector
      Lanczos missed an exact degenerate copy of three equally
      charge-coupled oscillators at 1 728 dims.

    ``start`` is an optional (dim,) vector or (dim, m) block close to the
    wanted eigenvectors, such as the previous solution of a sweep carried
    over by :func:`embed`.  LOBPCG takes its first k columns as separate
    start vectors; ARPACK starts from the sum of its columns.
    Each adds a seeded random part of _START_ADMIXTURE of the start's norm,
    so that levels the start misses, such as those of another symmetry
    sector, stay reachable.  The dense branch ignores it.

    Raises :class:`EigensolverConvergenceError` when an iterative solver
    does not converge or when a returned pair's residual exceeds
    RESIDUAL_FACTOR * max(tol, eps) * max(1, |E|).
    """
    _check_integer("k", k)
    if k < 1:
        raise ValueError(f"k = {k} must be at least 1")
    if op.dim < k:
        raise ValueError(f"operator dimension {op.dim} is smaller than k = {k}")
    factor = RESIDUAL_FACTOR
    limit = DENSE_LIMIT if op.quadratic else min(
        DENSE_LIMIT, max(_COSINE_DENSE_FLOOR, _COSINE_DENSE_PER_LEVEL * k))
    if op.dim <= limit or 5 * k > op.dim:
        evals, evecs = scipy.linalg.eigh(
            op.to_dense(), overwrite_a=True, subset_by_index=[0, k - 1]
        )
    elif not op.quadratic:
        evals, evecs = _lobpcg(op, k, tol, start)
        factor = 1  # LOBPCG's own stopping rule, checked
    else:
        ncv = min(op.dim, max(2 * k + 1, 40))
        maxiter = max(100, (10 * op.dim) // max(ncv - k, 1))
        v0 = np.random.default_rng(_START_SEED).standard_normal(op.dim)
        if start is not None:
            s = np.asarray(start).reshape(op.dim, -1).sum(axis=1)
            v0 = s + (_START_ADMIXTURE * np.linalg.norm(s) / np.linalg.norm(v0)) * v0
        A = scipy.sparse.linalg.LinearOperator(
            (op.dim, op.dim), matvec=op.matvec, matmat=op.matmat, dtype=op.dtype
        )
        try:
            evals, evecs = scipy.sparse.linalg.eigsh(
                A, k=k, which="SA", tol=tol, ncv=ncv, maxiter=maxiter, v0=v0
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            got = exc.eigenvalues
            res = None
            if exc.eigenvectors is not None and exc.eigenvectors.size:
                res = _residuals(op, got, exc.eigenvectors)
            raise EigensolverConvergenceError(
                f"ARPACK did not converge within {maxiter} iterations "
                f"({len(got)} of {k} eigenpairs found)",
                residuals=res,
            ) from exc
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    evecs = evecs / np.linalg.norm(evecs, axis=0)
    residuals = _residuals(op, evals, evecs)
    limit = factor * max(tol, np.finfo(float).eps) * np.maximum(1.0, np.abs(evals))
    bad = np.nonzero(residuals > limit)[0]
    if bad.size:
        raise EigensolverConvergenceError(
            f"eigenpair residuals {residuals[bad]} at levels {bad.tolist()} "
            f"exceed {limit[bad]} (cutoffs {op.dims})",
            residuals=residuals,
        )
    return SpectrumResult(
        eigenvalues=np.asarray(evals, dtype=float),
        eigenvectors=evecs,
        cutoffs=op.dims,
        residuals=residuals,
    )


def make_locals_builder(H: CircuitHamiltonian):
    """Builder (mode, keep) -> LocalMode that caches and truncates.

    The primitive diagonalization is mode-local, so each mode is built
    once, retaining at least 50 states, as many as its default primitive
    basis is sized for, and every request up to the retained count is
    sliced from that build.  A larger request rebuilds the mode in a
    larger primitive basis, whose states differ from the old ones by the
    truncation error and possibly by a sign each.  The cutoff rule is
    applied before any build, with no upper bound (``ValueError``).
    """
    cache: dict[int, LocalMode] = {}

    def build(mode: int, keep: int) -> LocalMode:
        _check_cutoff(mode, keep, math.inf)
        cached = cache.get(mode)
        if cached is None or cached.dim < keep:
            cached = build_local_mode(H, mode, keep=max(keep, _MIN_KEEP))
            cache[mode] = cached
        return cached.truncated(keep)

    return build


def _warm_solver(H: CircuitHamiltonian, build, tol: float):
    """solve_at(cutoffs, k): the k lowest eigenpairs of H at per-mode cutoffs.

    H is validated here, once per step and before any build
    (:class:`~scmodes.model.InvalidHamiltonianError`), so each driver
    creates its step before it builds a mode.  Modes come from one builder
    ``build`` and couplings from one :class:`CouplingSet`; each solve after
    the first starts from the last result carried over by :func:`embed`.
    """
    require_valid(H)
    couplings = CouplingSet.from_hamiltonian(H)
    last = None

    def solve_at(cutoffs, k: int) -> SpectrumResult:
        nonlocal last
        op = assemble_hamiltonian([build(m, d) for m, d in enumerate(cutoffs)], H, couplings)
        start = None if last is None else embed(last.eigenvectors, last.cutoffs, op.dims)
        last = eigensolve(op, k=k, tol=tol, start=start)
        return last

    return solve_at


def solve(H: CircuitHamiltonian, cutoffs, k: int = 10, tol: float = SOLVE_TOL) -> SpectrumResult:
    """Build local modes at the given cutoffs, assemble, and eigensolve.

    A warm-started solve is ``eigensolve(op, k, start=embed(...))``.
    """
    solve_at = _warm_solver(H, make_locals_builder(H), tol)
    if len(cutoffs) != H.n:
        raise ValueError(f"{len(cutoffs)} cutoffs given for {H.n} modes")
    return solve_at(cutoffs, k)


def embed(vectors: np.ndarray, old_dims, new_dims) -> np.ndarray:
    """A (prod(old_dims), m) block carried to (prod(new_dims), m).

    Each mode's axis is zero-padded or truncated to its new dimension.
    Between bases of one ``make_locals_builder`` this is exact while no
    mode was rebuilt in a larger primitive basis, since the retained states
    are then nested: up to cutoff 50 on either kind of mode.  Across such a
    rebuild (as from cutoff 32 to 64) a state may change sign, so the block
    is then only a start vector, not the previous solution.
    Raises ValueError when the two give different numbers of modes.
    """
    old_dims = tuple(int(d) for d in old_dims)
    new_dims = tuple(int(d) for d in new_dims)
    if len(old_dims) != len(new_dims):
        raise ValueError(f"old_dims {old_dims} and new_dims {new_dims} differ in mode count")
    vectors = np.asarray(vectors)
    m = vectors.shape[1]
    out = np.zeros(new_dims + (m,), dtype=vectors.dtype)
    common = tuple(slice(0, min(a, b)) for a, b in zip(old_dims, new_dims))
    out[common] = vectors.reshape(old_dims + (m,))[common]
    return out.reshape(-1, m)


def reduced_density_matrix(result: SpectrumResult, state: int, mode: int) -> np.ndarray:
    """Trace the chosen eigenstate's projector over all modes but one.

    The Hermitian (d, d) matrix over the mode's retained states; its real
    diagonal holds the populations.
    """
    _check_integer("state", state)
    _check_integer("mode", mode)
    k = result.eigenvalues.shape[0]
    if not 0 <= state < k:
        raise IndexError(f"state {state} out of range (k = {k})")
    if not 0 <= mode < len(result.cutoffs):
        raise IndexError(f"mode {mode} out of range")
    psi = result.eigenvectors[:, state].reshape(result.cutoffs)
    others = [ax for ax in range(len(result.cutoffs)) if ax != mode]
    rho = np.tensordot(psi.conj(), psi, axes=(others, others))
    return (rho + rho.conj().T) / 2.0


def adaptive_cutoffs(
    H: CircuitHamiltonian,
    epsilon: float = ADAPTIVE_EPSILON,
    d_init: int = 8,
    d_max: int = 64,
    max_rounds: int = 10,
) -> tuple[int, ...]:
    """Per-mode cutoffs d_k with ground-state populations below epsilon past d_k.

    Working dimensions start at min(d_init, d_max), both integers of at
    least 1 like every cutoff (else ``ValueError``, before any product-size
    array).  A mode whose population has not decayed below epsilon by its
    last retained state is doubled (capped at d_max, beyond which the
    offending mode raises), otherwise it moves to one state past its
    target, the minimal d with all populations at indices >= d below
    epsilon, so that the criterion stays observable.  The rounds stop when
    one leaves every working dimension unchanged, and the targets, those
    dimensions minus one, are returned; ``max_rounds`` without such a
    round raises :class:`CutoffLimitError`.

    Each round solves to SOLVE_TOL, as :func:`spectrum_vs_cutoff` does,
    and each after the first starts the iterative solver from the
    previous round's ground state, embedded in the new working dimensions.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not epsilon < 1:  # no population exceeds 1
        raise ValueError("epsilon must be below 1")
    solve_at = _warm_solver(H, make_locals_builder(H), SOLVE_TOL)
    work = [min(d_init, d_max)] * H.n
    for _ in range(max_rounds):
        ground = solve_at(work, 1)
        new = []
        for m, d in enumerate(work):
            pops = reduced_density_matrix(ground, 0, m).diagonal().real
            above = np.nonzero(pops >= epsilon)[0]
            t = int(above[-1]) + 1 if above.size else 1
            if t < d:
                new.append(t + 1)
            elif d < d_max:
                new.append(min(2 * d, d_max))
            else:
                raise CutoffLimitError(
                    f"mode {m}: population {pops[-1]:.3e} at state {d - 1} "
                    f"still exceeds epsilon = {epsilon:.3e} at d_max = {d_max}"
                )
        if new == work:
            return tuple(d - 1 for d in work)
        work = new
    raise CutoffLimitError(
        f"no fixed point after {max_rounds} rounds; next working dimensions {tuple(work)}"
    )


def spectrum_vs_cutoff(H: CircuitHamiltonian, k: int, d_values) -> list[tuple[int, np.ndarray]]:
    """The k lowest eigenvalues at each uniform per-mode cutoff d.

    Every mode is built once at the largest d, so each point truncates
    one nested basis, and each solve after the first starts from the
    previous point's k eigenvectors, embedded in the new cutoffs.
    """
    d_values = list(d_values)
    build = make_locals_builder(H)
    solve_at = _warm_solver(H, build, SOLVE_TOL)
    if d_values:
        for m in range(H.n):
            build(m, max(d_values))
    return [(d, solve_at((d,) * H.n, k).eigenvalues) for d in d_values]
