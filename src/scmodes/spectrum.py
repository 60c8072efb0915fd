"""Low-energy spectra in truncated per-mode eigenbases.

Each mode gets a primitive basis (harmonic oscillator or charge states),
its local Hamiltonian is densely diagonalized there, and the lowest
``keep`` eigenstates are retained.  The coupled Hamiltonian is assembled
in the product of the retained bases as a sum of tensor products of
local operators, applied matrix-free; small systems are materialized and
solved densely, larger ones go through ARPACK.  A sequence of solves at
growing or shrinking cutoffs (the adaptive search, a cutoff sweep) starts
each ARPACK run from the previous solution, carried over by ``embed``.

Couplings come in two kinds: quadratic charge/flux pairs from the
off-diagonal entries of C_inv and M0, and residual cosine couplings
cos(sum_j a_j phi_j) - sum_j cos(a_j phi_j) produced when a junction
argument spreads over several modes.  Every term of the operator is
coeff * X or coeff * (X + X^H)/2 with X a tensor product of local
operators: a quadratic coupling is the first kind, a multi-mode cosine
the second, with X the product of per-mode phase factors exp(i a phi).
The single-mode parts of all cosine couplings are summed into one
matrix per mode.
"""

from __future__ import annotations

import numbers
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

SOLVE_TOL = 1e-9  # default eigensolver tolerance

ADAPTIVE_EPSILON = 1e-17  # default population threshold of adaptive_cutoffs

# An eigenpair whose residual ||H v - E v|| exceeds this many solver
# tolerances (at least machine epsilon), times max(1, |E|), is rejected.
RESIDUAL_FACTOR = 100

_HO_DEFAULT_DIM = 200
_CHARGE_DEFAULT_MAX = 40

# Fixed seed of ARPACK's random starting vector, so that commands are
# reproducible.  Without a start it is the whole starting vector; with a
# start it is the admixture below.
_ARPACK_SEED = 7

# A start's weight on a state it misses, relative to the start's norm.  A
# start can lie wholly in one symmetry sector, and ARPACK then converges to
# that sector's levels only, with small residuals; a 1e-6 random part lets
# it reach the others at a few percent more matvecs than none.
_START_ADMIXTURE = 1e-6


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
        """Whether the retained eigenvectors P are real, as phi_op = P^H phi P is
        (a charge mode's P always is); read by the flop model of ``bench/layers.py``."""
        return self.phi_op is None or np.isrealobj(self.phi_op)

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
    max(200, 4*keep) states; any other mode gets the charge states
    -max(40, 2*keep) .. max(40, 2*keep).  ``primitive_dim`` overrides the
    size: that many oscillator states, or charges +-(primitive_dim - 1)//2.
    Phase factors exp(i*a*phi) are prepared for every local cosine
    coefficient.  ``keep`` must be an integer in [1, dim] (``ValueError``).  A
    charge-basis mode takes no linear flux term and only nonzero integer
    cosine coefficients (:class:`BasisMismatchError`).
    """
    c_ii, m_ii = float(H.C_inv[mode, mode]), float(H.M0[mode, mode])
    harmonic = m_ii > 1e-10 * max(1.0, np.abs(H.M0).max())
    if harmonic:
        dim = primitive_dim or max(_HO_DEFAULT_DIM, 4 * keep)
    else:
        if primitive_dim is None:
            max_charge = max(_CHARGE_DEFAULT_MAX, 2 * keep)
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
    # charge basis), n, and cos(a*phi) and exp(i*a*phi) as functions of a.
    if harmonic:
        z = np.sqrt(c_ii / m_ii)  # impedance
        ladder = np.diag(np.sqrt(np.arange(1, dim)), 1)  # annihilation
        phi = np.sqrt(z / 2.0) * (ladder + ladder.T)
        n = 1j * (np.sqrt(1.0 / (2.0 * z)) * (ladder.T - ladder))
        H_prim = np.diag(np.sqrt(c_ii * m_ii) * (np.arange(dim) + 0.5)) + flux_lin * phi
        xs, U = np.linalg.eigh(phi)
        cos = lambda a: (U * np.cos(a * xs)) @ U.T  # noqa: E731
        exp = lambda a: (U * np.exp(1j * a * xs)) @ U.T  # noqa: E731
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
        charges = np.arange(-max_charge, max_charge + 1, dtype=float)
        phi = None
        n = np.diag(charges)
        H_prim = np.diag(0.5 * c_ii * charges**2)
        # exp(i*a*phi): |m> -> |m + a>
        exp = lambda a: np.eye(dim, k=-round(a))  # noqa: E731
        cos = lambda a: 0.5 * (exp(a) + exp(a).T)  # noqa: E731

    for energy, sign, a in cos_terms:
        H_prim -= sign * energy * cos(a)
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
        phase_factors={a: project(exp(a)) for a in sorted({a for _, _, a in cos_terms})},
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


def _apply_factors(factors, psi: np.ndarray) -> np.ndarray:
    """prod_j mat_j applied to psi, each mat_j along axis_j."""
    for axis, mat in factors:
        psi = np.moveaxis(np.tensordot(mat, psi, axes=([1], [axis])), 0, axis)
    return psi


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
    """coeff * X, or coeff * (X + X^H)/2 given ``adjoint``; X = prod_j mat_j on axis_j.

    ``adjoint`` lists the conjugate transposes of ``factors``.  When every
    factor is complex symmetric, X^H = conj(X), so on a real vector the
    term is coeff * Re(X psi): one complex product instead of two.
    """

    def __init__(self, coeff, factors, adjoint=None, symmetric=False):
        self.coeff = coeff.real if coeff.imag == 0.0 else coeff
        self.factors = factors
        self.adjoint = adjoint
        self.symmetric = symmetric

    @property
    def is_real(self) -> bool:
        return np.isrealobj(self.coeff) and (
            self.symmetric or all(np.isrealobj(m) for _, m in self.factors)
        )

    def apply(self, psi: np.ndarray) -> np.ndarray:
        w = _apply_factors(self.factors, psi)
        if self.adjoint is None:
            return self.coeff * w
        if self.symmetric and np.isrealobj(psi):
            return self.coeff * w.real
        w += _apply_factors(self.adjoint, psi)
        return (0.5 * self.coeff) * w


class ProductOperator:
    """Hermitian operator on a tensor-product space, applied matrix-free.

    Holds a diagonal (the summed local energies) plus a list of terms,
    each a scalar coefficient times a tensor product of per-mode
    matrices, or the Hermitian part of one.  Real throughout whenever
    every term is.
    """

    def __init__(self, dims, diag, terms, dtype):
        self.dims = tuple(int(d) for d in dims)
        self.dim = int(np.prod(self.dims))
        self.dtype = dtype
        self._diag = diag[..., np.newaxis]  # shaped ``dims + (1,)``
        self._terms = terms  # list[_Term]

    def _apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi for psi shaped ``dims + (batch,)``."""
        out_dtype = np.promote_types(self.dtype, psi.dtype)
        out = (self._diag * psi).astype(out_dtype, copy=False)
        for term in self._terms:
            out += term.apply(psi)
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
    """Assemble the coupled Hamiltonian in the retained product basis."""
    n = H.n
    if len(locals_) != n or any(loc.mode_index != m for m, loc in enumerate(locals_)):
        raise ValueError("one LocalMode per mode, ordered by mode index, is required")
    dims = tuple(loc.dim for loc in locals_)

    diag = np.zeros(dims)
    for axis, loc in enumerate(locals_):
        shape = [1] * n
        shape[axis] = loc.dim
        diag = diag + loc.energies.reshape(shape)

    terms: list[_Term] = []
    for attr, pairs in (("n_op", couplings.charge), ("phi_op", couplings.flux)):
        for i, j, coeff in pairs:
            factors = []
            for mode in (i, j):
                op = getattr(locals_[mode], attr)
                if op is None:
                    raise BasisMismatchError(
                        f"flux coupling ({i}, {j}) touches charge-basis mode {mode}, "
                        "which has no flux operator"
                    )
                phase, mat = _phase_split(op)
                coeff *= phase
                factors.append((mode, mat))
            terms.append(_Term(coeff, tuple(factors)))

    # pre * [(X + X^H)/2 - sum_j (e_j + e_j^H)/2] per cosine row, X = prod_j e_j;
    # the single-mode parts are summed into one matrix per mode.
    single = {}
    for cc in couplings.cosines:
        pre = -cc.sign * cc.energy
        factors = tuple((m, locals_[m].phase_factor(a)) for m, a in zip(cc.modes, cc.coeffs))
        symmetric = all(
            np.abs(e - e.T).max() <= 1e-12 * max(1.0, np.abs(e).max()) for _, e in factors
        )
        adjoint = tuple((m, e.conj().T) for m, e in factors)
        terms.append(_Term(pre, factors, adjoint, symmetric))
        for m, e in factors:
            single[m] = single.get(m, 0.0) - pre * (e + e.conj().T) / 2
    for m in sorted(single):
        phase, mat = _phase_split(single[m])
        terms.append(_Term(phase, ((m, mat),)))

    dtype = np.float64 if all(t.is_real for t in terms) else np.complex128
    return ProductOperator(dims, diag, terms, dtype)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray   # (k,) ascending, GHz*h
    eigenvectors: np.ndarray  # (dim, k) columns in the product basis
    cutoffs: tuple[int, ...]
    residuals: np.ndarray     # (k,) ||H v - E v||


def _residuals(op: ProductOperator, evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """||H v - E v|| for each column v of ``evecs``."""
    return np.linalg.norm(op.matmat(evecs) - evecs * evals, axis=0)


def eigensolve(
    op: ProductOperator, k: int, tol: float = SOLVE_TOL, start: np.ndarray | None = None
) -> SpectrumResult:
    """k lowest eigenpairs: dense below DENSE_LIMIT, otherwise ARPACK.

    ``start`` is an optional (dim,) vector or (dim, m) block close to the
    wanted eigenvectors, such as the previous solution of a sweep carried
    over by :func:`embed`.  ARPACK then starts from the sum of its columns
    plus the seeded random vector scaled to _START_ADMIXTURE of that sum's
    norm, so that levels the start misses, such as those of another
    symmetry sector, stay reachable.  The dense branch ignores it.

    Raises :class:`EigensolverConvergenceError` when ARPACK does not
    converge or when a returned pair's residual exceeds
    RESIDUAL_FACTOR * max(tol, eps) * max(1, |E|).
    """
    if k < 1:
        raise ValueError(f"k = {k} must be at least 1")
    if op.dim < k:
        raise ValueError(f"operator dimension {op.dim} is smaller than k = {k}")
    if op.dim <= DENSE_LIMIT or k >= op.dim - 1:
        dense = op.to_dense()
        # (H + H^H)/2 in place, with one full-size temporary instead of two
        dense += dense.conj().T
        dense *= 0.5
        evals, evecs = scipy.linalg.eigh(dense, overwrite_a=True, subset_by_index=[0, k - 1])
    else:
        ncv = min(op.dim, max(2 * k + 1, 40))
        maxiter = max(100, (10 * op.dim) // max(ncv - k, 1))
        v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(op.dim)
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
    limit = RESIDUAL_FACTOR * max(tol, np.finfo(float).eps) * np.maximum(1.0, np.abs(evals))
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

    The primitive diagonalization is mode-local and its basis only grows
    with keep, so a larger previously built mode is sliced instead of
    rebuilt.
    """
    cache: dict[int, LocalMode] = {}

    def build(mode: int, keep: int) -> LocalMode:
        cached = cache.get(mode)
        if cached is None or cached.dim < keep:
            cached = build_local_mode(H, mode, keep=keep)
            cache[mode] = cached
        return cached.truncated(keep)

    return build


def _warm_solver(H: CircuitHamiltonian, build, tol: float):
    """solve_at(cutoffs, k): the k lowest eigenpairs of H at per-mode cutoffs.

    Modes come from one builder ``build`` and couplings from one
    :class:`CouplingSet`; each solve after the first starts from the last
    result carried over by :func:`embed`.  The caller validates H.
    """
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
    require_valid(H)
    if len(cutoffs) != H.n:
        raise ValueError(f"{len(cutoffs)} cutoffs given for {H.n} modes")
    return _warm_solver(H, make_locals_builder(H), tol)(cutoffs, k)


def embed(vectors: np.ndarray, old_dims, new_dims) -> np.ndarray:
    """A (prod(old_dims), m) block carried to (prod(new_dims), m).

    Each mode's axis is zero-padded or truncated to its new dimension.
    Between bases of one ``make_locals_builder``, which truncates a single
    local eigenbasis, this is exact: the retained states are nested.
    """
    old_dims = tuple(int(d) for d in old_dims)
    new_dims = tuple(int(d) for d in new_dims)
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
    and each after the first starts ARPACK from the previous round's
    ground state, embedded in the new working dimensions.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not epsilon < 1:  # no population exceeds 1
        raise ValueError("epsilon must be below 1")
    require_valid(H)
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
    one nested basis, and each solve after the first starts ARPACK from
    the previous point's k eigenvectors, embedded in the new cutoffs.
    """
    require_valid(H)
    d_values = list(d_values)
    build = make_locals_builder(H)
    if d_values:
        for m in range(H.n):
            build(m, max(d_values))
    solve_at = _warm_solver(H, build, SOLVE_TOL)
    return [(d, solve_at((d,) * H.n, k).eigenvalues) for d in d_values]
