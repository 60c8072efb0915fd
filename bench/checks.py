"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made here,
apart from the program, or with a property the method must have.  None
compares with a stored copy of earlier output.  Each check raises
CheckFailed with a message saying what disagreed.

The Hamiltonian in a truncated product basis is rebuilt here from the
public local-mode operators (``energies``, ``n_op``, ``phi_op``,
``phase_factor``) and the circuit matrices, without ProductOperator:
either as a dense Kronecker-product matrix (``dense_hamiltonian``) or
applied to a vector by tensor contractions (``apply_hamiltonian``).
"""

from __future__ import annotations

import numpy as np

from scmodes import io, spectrum, symplectic

# The paper's ten lowest Cooper-pair-box levels at cutoffs [30, 30] (GHz),
# its qubit frequency, and the tolerances it states for them.
CPB_PAPER_LEVELS = (-0.999, -0.00981, 0.979, 1.88, 1.97, 2.87, 2.96, 3.32, 3.85, 3.95)
CPB_PAPER_ATOL = 0.01
CPB_PAPER_QUBIT = 0.989
CPB_PAPER_QUBIT_ATOL = 0.005

# Eigenvalues from the program and from the dense reference are both
# double-precision solutions of the same matrix.
DENSE_EIG_ATOL = 1e-8

# An iterative eigenpair passes when ||H v - E v|| <= RESIDUAL_FACTOR * tol * max(1, |E|)
# for the tolerance the solve was asked for.
RESIDUAL_FACTOR = 100.0

# Transforms are built in double precision from matrices of condition
# number below ~1e3; their invariants hold far inside these.
INVERSE_ATOL = 1e-9
FREQUENCY_RTOL = 1e-8
FS_OFFDIAG_RTOL = 1e-8
JUNCTION_ROW_ATOL = 1e-12

# Quadratic-form eigenvalues below this share of the largest count as zero
# (free modes): M0 vanishes exactly on them up to rounding.
ZERO_FREQUENCY_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with its independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- the Hamiltonian rebuilt from local-mode operators -----------------------


def cross_terms(locals_, H):
    """Every cross-mode term of H in the retained bases.

    Each term is (coefficient, ((mode, matrix), ...)) and stands for
    coefficient times the tensor product of the matrices.  Quadratic
    terms come from the off-diagonal entries of C_inv and M0; a junction
    row with several nonzero coefficients a_j contributes
    -sign E_J [cos(sum_j a_j phi_j) - sum_j cos(a_j phi_j)], written with
    the phase factors e_j = exp(i a_j phi_j) as
    (prod e_j + prod e_j^H)/2 - sum_j (e_j + e_j^H)/2.
    """
    terms = []
    for i in range(H.n):
        for j in range(i + 1, H.n):
            if H.C_inv[i, j] != 0.0:
                terms.append((H.C_inv[i, j], ((i, locals_[i].n_op), (j, locals_[j].n_op))))
            if H.M0[i, j] != 0.0:
                phis = (locals_[i].phi_op, locals_[j].phi_op)
                require(all(p is not None for p in phis), f"flux coupling ({i}, {j}) touches a charge-basis mode")
                terms.append((H.M0[i, j], ((i, phis[0]), (j, phis[1]))))
    for r in range(H.n_J):
        row = H.J_args[r]
        modes = [m for m in range(H.n) if abs(row[m]) > spectrum.COEFF_DROP_TOL]
        if len(modes) < 2:
            continue
        pre = -H.E_sign[r] * H.E_J[r]
        factors = [(m, locals_[m].phase_factor(float(row[m]))) for m in modes]
        terms.append((pre / 2, tuple(factors)))
        terms.append((pre / 2, tuple((m, e.conj().T) for m, e in factors)))
        for m, e in factors:
            terms.append((-pre / 2, ((m, e),)))
            terms.append((-pre / 2, ((m, e.conj().T),)))
    return terms


def _local_diagonal(locals_):
    diag = np.zeros(tuple(loc.dim for loc in locals_))
    for axis, loc in enumerate(locals_):
        shape = [1] * len(locals_)
        shape[axis] = loc.dim
        diag = diag + loc.energies.reshape(shape)
    return diag


def dense_hamiltonian(locals_, H, terms=None):
    """Dense matrix of H in the retained product basis, by Kronecker products."""
    terms = cross_terms(locals_, H) if terms is None else terms
    dims = [loc.dim for loc in locals_]
    out = np.diag(_local_diagonal(locals_).reshape(-1)).astype(complex)
    for coeff, factors in terms:
        mats = [np.eye(d) for d in dims]
        for m, mat in factors:
            mats[m] = mat
        full = mats[0]
        for mat in mats[1:]:
            full = np.kron(full, mat)
        out += coeff * full
    return out


def apply_hamiltonian(locals_, H, vectors, terms=None):
    """H applied to each column of ``vectors`` by tensor contractions."""
    terms = cross_terms(locals_, H) if terms is None else terms
    dims = tuple(loc.dim for loc in locals_)
    vectors = np.asarray(vectors)
    batch = vectors.shape[1]
    psi = vectors.reshape(dims + (batch,))
    out = _local_diagonal(locals_)[..., np.newaxis] * psi
    out = out.astype(np.result_type(out, complex))
    for coeff, factors in terms:
        w = psi
        for m, mat in factors:
            w = np.moveaxis(np.tensordot(mat, w, axes=([1], [m])), 0, m)
        out += coeff * w
    return out.reshape(-1, batch)


def local_modes(H, cutoffs):
    """The program's local modes at ``cutoffs``, from a fresh public builder."""
    build = spectrum.make_locals_builder(H)
    return [build(m, int(d)) for m, d in enumerate(cutoffs)]


# -- spectra -----------------------------------------------------------------


def residual_norms(locals_, H, eigenvalues, eigenvectors, terms=None):
    """||H v - E v|| / ||v|| for each eigenpair, with H applied here."""
    vecs = np.asarray(eigenvectors)
    Hv = apply_hamiltonian(locals_, H, vecs, terms)
    return np.linalg.norm(Hv - vecs * eigenvalues, axis=0) / np.linalg.norm(vecs, axis=0)


def check_residuals(locals_, H, eigenvalues, eigenvectors, tol, terms=None):
    """Every eigenpair has a small residual; returns the residual norms."""
    res = residual_norms(locals_, H, eigenvalues, eigenvectors, terms)
    limit = RESIDUAL_FACTOR * tol * np.maximum(1.0, np.abs(eigenvalues))
    bad = np.nonzero(res > limit)[0]
    require(
        bad.size == 0,
        f"eigenpair residuals {res[bad]} at levels {bad.tolist()} exceed {limit[bad]} "
        f"(cutoffs {[loc.dim for loc in locals_]})",
    )
    return res


def check_nonincreasing(d_values, eigenvalues, residuals):
    """Each level does not rise as the nested bases grow, within the residual bound.

    For a Hermitian H and unit v, some eigenvalue lies within ||H v - E v||
    of E; the Ritz values of nested subspaces interlace, so level k at the
    larger cutoff may exceed level k at the smaller one by no more than
    the two residuals together.
    """
    for a in range(len(d_values) - 1):
        slack = residuals[a] + residuals[a + 1]
        rise = eigenvalues[a + 1] - eigenvalues[a]
        bad = np.nonzero(rise > slack)[0]
        require(
            bad.size == 0,
            f"levels {bad.tolist()} rise from d={d_values[a]} to d={d_values[a + 1]} "
            f"by {rise[bad]}, beyond the residual bound {slack[bad]}",
        )


def check_dense_reference(locals_, H, eigenvalues):
    """The lowest eigenvalues equal those of the dense Kronecker-product matrix."""
    ref = np.linalg.eigvalsh(dense_hamiltonian(locals_, H))[: len(eigenvalues)]
    diff = np.abs(np.asarray(eigenvalues) - ref)
    require(
        diff.max() <= DENSE_EIG_ATOL,
        f"eigenvalues differ from the dense reference by {diff.max():.3e} "
        f"(cutoffs {[loc.dim for loc in locals_]})",
    )


def check_cpb_paper(eigenvalues):
    """The ten levels at [30, 30] match the paper's printed values."""
    ev = np.asarray(eigenvalues)
    diff = np.abs(ev[: len(CPB_PAPER_LEVELS)] - np.array(CPB_PAPER_LEVELS))
    require(diff.max() <= CPB_PAPER_ATOL, f"levels {ev} differ from the paper's by {diff.max():.3e}")
    qubit = ev[1] - ev[0]
    require(
        abs(qubit - CPB_PAPER_QUBIT) <= CPB_PAPER_QUBIT_ATOL,
        f"qubit frequency {qubit:.4f} differs from the paper's {CPB_PAPER_QUBIT}",
    )


def mode_populations(vector, dims):
    """Ground-state populations of each mode's retained states."""
    prob = np.abs(np.asarray(vector).reshape(dims)) ** 2
    axes = range(len(dims))
    return [prob.sum(axis=tuple(a for a in axes if a != m)) for m in axes]


def check_tail_populations(cutoffs, vector, dims, epsilon):
    """The population one state past each cutoff is below epsilon."""
    pops = mode_populations(vector, dims)
    for m, d in enumerate(cutoffs):
        require(
            pops[m][d] < epsilon,
            f"mode {m}: population {pops[m][d]:.3e} one state past cutoff {d} "
            f"is not below epsilon = {epsilon:.1e}",
        )


def check_adaptive_cutoffs(H, cutoffs, epsilon, tol):
    """Ground-state populations one state past each cutoff are below epsilon.

    The ground state comes from a solve at cutoffs + 1, whose residual is
    checked first, as in the acceptance criterion for adaptive cutoffs.
    """
    probe_dims = [d + 1 for d in cutoffs]
    probe = spectrum.solve(H, probe_dims, k=1, tol=tol)
    check_residuals(local_modes(H, probe_dims), H, probe.eigenvalues, probe.eigenvectors, tol)
    check_tail_populations(cutoffs, probe.eigenvectors[:, 0], probe_dims, epsilon)


# -- circuit preparation -----------------------------------------------------


def normal_mode_frequencies(C_inv, M0):
    """Sorted nonzero sqrt(eig(M0 C_inv)), and the number of zero ones.

    With C_inv = L L^T, M0 C_inv is similar to the symmetric L^T M0 L,
    whose eigenvalues numpy finds to working precision.
    """
    L = np.linalg.cholesky(C_inv)
    w = np.linalg.eigvalsh(L.T @ M0 @ L)
    zero = np.abs(w) <= ZERO_FREQUENCY_RTOL * np.abs(w).max()
    return np.sqrt(w[~zero]), int(zero.sum())


def check_frequencies(label, expected, H):
    got, _ = normal_mode_frequencies(H.C_inv, H.M0)
    require(
        got.shape == expected.shape,
        f"{label}: {got.size} nonzero normal-mode frequencies, expected {expected.size}",
    )
    diff = np.abs(got - expected).max()
    require(
        diff <= FREQUENCY_RTOL * expected.max(),
        f"{label}: normal-mode frequencies moved by {diff:.3e}",
    )


def check_inverse(label, T):
    n = T.W.shape[0]
    err = np.abs(T.W @ T.W_inv - np.eye(n)).max()
    require(err <= INVERSE_ATOL * n, f"{label}: |W W^-1 - I| = {err:.3e}")


def offdiag_sq(H):
    return sum(float((m**2).sum() - (np.diag(m) ** 2).sum()) for m in (H.C_inv, H.M0))


def same_hamiltonian(a, b):
    return a.kinds == b.kinds and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("C_inv", "M0", "N", "C_V", "E_J", "E_sign", "J_args", "Phi_x", "V")
    )


def check_circuit_prep(circuit, out):
    """All invariants of one prepared circuit.

    ``circuit`` is the generated input (its matrices and the number of
    free modes built in); ``out`` holds what the operation produced: the
    reduced circuit and its transform, the files they were saved to, the
    free-mode report, and the three decoupling results.
    """
    built_free = circuit["free"]
    freqs, zeros = normal_mode_frequencies(circuit["C_inv"], circuit["M0"])
    require(zeros == built_free, f"input has {zeros} zero frequencies, built with {built_free}")
    H_red = out["reduced"]
    require(
        out["report"].F == built_free and H_red.n == len(circuit["kinds"]) - built_free,
        f"removed {out['report'].F} free modes, built with {built_free}",
    )
    L = list(H_red.inductor_indices)
    m_ind = np.linalg.eigvalsh(H_red.M0[np.ix_(L, L)])
    require(
        m_ind[0] > ZERO_FREQUENCY_RTOL * m_ind[-1],
        f"reduced circuit keeps a free inductor direction (smallest M0 eigenvalue {m_ind[0]:.3e})",
    )
    check_inverse("remove_free_modes", out["transform"])
    check_frequencies("remove_free_modes", freqs, H_red)
    require(
        same_hamiltonian(io.load_hamiltonian(out["reduced_path"]), H_red),
        "saved reduced circuit does not reload equal",
    )
    T_back = io.load_transform(out["transform_path"])
    require(
        np.array_equal(T_back.W, out["transform"].W)
        and np.array_equal(T_back.W_inv, out["transform"].W_inv),
        "saved transform does not reload equal",
    )
    for name in ("sad", "ios", "fs"):
        res = out[name]
        check_inverse(name, res.T)
        check_frequencies(name, freqs, res.H_out)
        if name != "fs":
            moved = np.abs(res.H_out.J_args - H_red.J_args).max() if H_red.n_J else 0.0
            require(
                moved <= JUNCTION_ROW_ATOL and res.H_out.kinds == H_red.kinds,
                f"{name} moved the junction rows by {moved:.3e}",
            )
    ratio = offdiag_sq(out["fs"].H_out) / offdiag_sq(H_red)
    require(ratio <= FS_OFFDIAG_RTOL, f"fs leaves a relative off-diagonal norm {ratio:.3e}")
    lam = np.sort(symplectic.block_williamson(H_red.M0, H_red.C_inv).Lambda)
    diff = np.abs(lam - freqs).max() if lam.shape == freqs.shape else np.inf
    require(
        diff <= FREQUENCY_RTOL * freqs.max(),
        f"block_williamson Lambda differs from the normal-mode frequencies by {diff:.3e}",
    )
