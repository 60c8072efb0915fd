"""Shared fixtures: bundled example Hamiltonians, random-instance helpers,
and the reference oracles the tests compare the library against."""

import os

# One BLAS thread, as the benchmark's workers use; set before numpy loads
# its BLAS.  On 2 CPUs the suite took 248 s so, against 358 s with OpenBLAS's
# default threading.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import decimal
import json
import pathlib
from io import StringIO

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from scmodes import canonical, cli, io, spectrum
from scmodes.canonical import CanonicalTransform
from scmodes.decouple import jacobi_pair_angle
from scmodes.model import CircuitHamiltonian, ModeKind
from scmodes.symplectic import block_williamson

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

CPB_PATH = DATA_DIR / "cooper_pair_box.json"
FLUXONIUM_PATH = DATA_DIR / "coupled_fluxonium.json"

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def reference_commands():
    """(name, argv template) for each command line of ``golden/commands.txt``."""
    lines = (GOLDEN_DIR / "commands.txt").read_text().splitlines()
    return [tuple(line.split(maxsplit=1)) for line in lines if line and not line.startswith("#")]


def run_reference(template, out_dir):
    """Run one reference command in-process: (exit code, stdout, stderr).

    ``{F}`` and ``{C}`` in the template name the bundled circuits, and
    ``{out}`` the directory ``out_dir`` that receives written files.
    """
    argv = template.format(F=FLUXONIUM_PATH, C=CPB_PATH, out=out_dir).split()
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# The paper's symplectic eigenvalues for the two-fluxonium example, as printed.
FLUXONIUM_LAMBDA_PRINTED = ("2.46", "2.58", "3.57", "25.4", "39.4")

# The bundled example matrices are given to three significant figures.
PRINTED_SIG_FIGS = 3


@pytest.fixture(scope="session")
def cpb():
    return io.load_hamiltonian(str(CPB_PATH))


@pytest.fixture(scope="session")
def fluxonium():
    return io.load_hamiltonian(str(FLUXONIUM_PATH))


@pytest.fixture(scope="session")
def fluxonium_lambda_reference(fluxonium):
    """(reference, tolerance, bound) for the paper's five symplectic eigenvalues.

    Each entry is checked at 1% unless the printed inputs cannot determine
    it that well; then it gets the input-rounding ``bound`` plus the
    rounding of the printed reference itself.
    """
    bound = symplectic_rounding_bound(
        fluxonium.M0,
        fluxonium.C_inv,
        printed_half_units(FLUXONIUM_PATH, "M0"),
        printed_half_units(FLUXONIUM_PATH, "C_inv"),
    )
    reference = np.array([float(x) for x in FLUXONIUM_LAMBDA_PRINTED])
    h_ref = np.array([half_unit(x) for x in FLUXONIUM_LAMBDA_PRINTED])
    tolerance = np.maximum(0.01 * reference, bound + h_ref)
    return reference, tolerance, bound


def half_unit(literal):
    """Half a unit in the last significant figure of a printed number.

    Zero is exact.  A literal is read at PRINTED_SIG_FIGS significant
    figures, or at more where it prints more nonzero digits (6.027 has
    four); trailing zeros (400.0, -0.110) add none.
    """
    d = decimal.Decimal(literal)
    if d == 0:
        return 0.0
    d = d.normalize()
    figures = max(PRINTED_SIG_FIGS, len(d.as_tuple().digits))
    return 0.5 * 10.0 ** (d.adjusted() - figures + 1)


def printed_half_units(path, key):
    """Entrywise half_unit of the matrix ``key`` as printed in a JSON file."""
    with open(path) as fh:
        data = json.load(fh, parse_float=decimal.Decimal, parse_int=decimal.Decimal)
    return np.array([[half_unit(x) for x in row] for row in data[key]])


def symplectic_rounding_bound(M0, C_inv, h_M0, h_C_inv):
    """First-order bound on each symplectic eigenvalue of diag(M0, C_inv).

    With S = diag(S_n, L) from ``block_williamson``, a small symmetric
    change (dM0, dC_inv) moves a nondegenerate Lambda_k by
    1/2 S_n[:, k]^T dM0 S_n[:, k] + 1/2 L[:, k]^T dC_inv L[:, k]
    to first order;
    bounding every entry by its rounding h gives
    b_k = 1/2 sum_ij |S_n[i,k] S_n[j,k]| h(M0)_ij
        + 1/2 sum_ij |L[i,k] L[j,k]| h(C_inv)_ij.
    """
    fact = block_williamson(M0, C_inv)
    n = fact.n
    bound = np.zeros(n)
    for S, h in ((fact.S[:n, :n], h_M0), (fact.S[n:, n:], h_C_inv)):
        A = np.abs(S)
        bound += 0.5 * np.einsum("ik,jk,ij->k", A, A, h)
    return bound


def random_spd(rng, n, cond=10.0):
    """Random symmetric positive definite matrix with bounded conditioning."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evals = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    return (Q * evals) @ Q.T


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_quadratic_hamiltonian(rng, n, kinds=None):
    """Random junction-free Hamiltonian with PD C_inv and PD M0."""
    kinds = kinds or [ModeKind.INDUCTOR] * n
    return CircuitHamiltonian(
        kinds=kinds,
        C_inv=random_spd(rng, n),
        M0=random_spd(rng, n),
    )


def random_free_mode_instance(rng, n_kept, F, rotate=True):
    """Instance with F exactly-free inductor directions among n_kept + F modes.

    Built exposed (free modes first, exact zero M0/N rows) and then
    optionally rotated within the inductor block by a random orthogonal
    mixing, which hides the free directions without breaking exactness.
    """
    n = n_kept + F
    kinds = [ModeKind.INDUCTOR] * n
    C_inv = random_spd(rng, n)
    M0 = np.zeros((n, n))
    M0[F:, F:] = random_spd(rng, n_kept)
    H = CircuitHamiltonian(kinds=kinds, C_inv=C_inv, M0=M0)
    if not rotate:
        return H
    Q = random_orthogonal(rng, n)
    return canonical.apply(H, CanonicalTransform.from_orthogonal(Q))


def spectral_equivalence_check(H, H2, k, cutoff):
    """Max absolute difference of the k lowest eigenvalues at a uniform cutoff.

    For H2 = apply(H, T) the difference converges to zero as the cutoff
    grows, since the two Hamiltonians are unitarily equivalent.  Limited
    to desk-scale systems (<= 3 modes).
    """
    if H.n > 3 or H2.n > 3:
        raise ValueError("spectral_equivalence_check is limited to systems of <= 3 modes")
    e1 = spectrum.solve(H, [cutoff] * H.n, k).eigenvalues
    e2 = spectrum.solve(H2, [cutoff] * H2.n, k).eigenvalues
    return float(np.abs(e1 - e2).max())


def block_elim_transform(H_exposed, F):
    """One-shot Schur-complement form of the free-mode elimination.

    With C = C_inv^-1 partitioned as [[A, X], [X^T, B]] over
    (free, non-free), the transform with (W^T)^-1 = [[I, 0], [-X^T A^-1, I]]
    removes every coupling between free and non-free modes in one shot.
    Unlike the iterative elimination it does not diagonalize the couplings
    among the free modes themselves; the off-free-block row -X^T A^-1 and
    the action on the kept modes are identical for both constructions, and
    the free-free mixing is discarded with the free modes anyway.
    """
    n = H_exposed.n
    if F == 0:
        return CanonicalTransform.identity(n)
    C = np.linalg.inv(H_exposed.C_inv)
    A = C[:F, :F]
    X = C[:F, F:]
    assert np.linalg.eigvalsh((A + A.T) / 2.0)[0] > 1e-12 * np.linalg.norm(C, 2)
    G = np.eye(n)  # (W^T)^-1
    G[F:, :F] = -X.T @ np.linalg.inv(A)
    return CanonicalTransform(np.linalg.inv(G.T), G.T)


def sad_pairwise(M0, C_inv, W, pairs):
    """SAD rotations applied one pair at a time, in the order given.

    For each (p, q) the optimal joint Givens angle is computed from the
    matrices as they stand, and the rows and columns of M0 and C_inv and the
    rows of W are rotated by it.
    Returns rotated copies (M0, C_inv, W); the inputs are left alone.
    """
    mats = [M0.copy(), C_inv.copy()]
    W = W.copy()
    for p, q in pairs:
        theta = jacobi_pair_angle(mats, p, q)
        c, s = np.cos(theta), np.sin(theta)
        for m in mats:
            rows_p = c * m[p, :] + s * m[q, :]
            rows_q = -s * m[p, :] + c * m[q, :]
            m[p, :], m[q, :] = rows_p, rows_q
            cols_p = c * m[:, p] + s * m[:, q]
            cols_q = -s * m[:, p] + c * m[:, q]
            m[:, p], m[:, q] = cols_p, cols_q
        rows_p = c * W[p, :] + s * W[q, :]
        rows_q = -s * W[p, :] + c * W[q, :]
        W[p, :], W[q, :] = rows_p, rows_q
    return mats[0], mats[1], W


def sinc_dvr_levels(c, m, flux_lin, E_J, sign, drive, k):
    """k lowest levels of one extended mode on a sinc-DVR grid in phi.

    The Hamiltonian is 1/2 c n^2 + 1/2 m phi^2 + flux_lin phi
    - sign E_J cos(phi) - drive n with n = -i d/dphi.  The grid of 301
    nodes is centred on the harmonic minimum -flux_lin/m and spans
    +-12 sqrt(z), z = sqrt(c/m); the kinetic matrix is
    Colbert and Miller's (J. Chem. Phys. 96, 1982 (1992)).  The drive is
    exact: 1/2 c n^2 - drive n = 1/2 c (n - drive/c)^2 - drive^2/(2c), and
    on the line the shift of n is the gauge exp(i drive phi / c), so every
    level moves by -drive^2/(2c).
    """
    points = 301
    half = 12.0 * np.sqrt(np.sqrt(c / m))
    x = -flux_lin / m + np.linspace(-half, half, points)
    dx = x[1] - x[0]
    diff = np.subtract.outer(np.arange(points), np.arange(points))
    kinetic = np.where(diff == 0, np.pi**2 / 3, 2.0 * (-1.0) ** diff / np.maximum(diff**2, 1))
    potential = 0.5 * m * x**2 + flux_lin * x - sign * E_J * np.cos(x)
    H = (0.5 * c / dx**2) * kinetic + np.diag(potential)
    return scipy.linalg.eigvalsh(H, subset_by_index=[0, k - 1]) - drive**2 / (2 * c)


def mathieu_levels(c, E_J, k):
    """k lowest levels of 1/2 c n^2 - sign E_J cos(phi) on the circle, either sign.

    With phi = 2x and E_C = c/8 the Schroedinger equation is Mathieu's
    y'' + (a - 2q cos 2x) y = 0 with a = E/E_C and q = -sign E_J/(2 E_C).
    The 2pi-periodic solutions in phi are the pi-periodic ones in x, whose
    characteristic values a_0, a_2, b_2, a_4, b_4, ... are even in q.
    """
    E_C = c / 8.0
    q = abs(E_J) / (2.0 * E_C)
    orders = range(0, 2 * k + 1, 2)
    values = [scipy.special.mathieu_a(r, q) for r in orders]
    values += [scipy.special.mathieu_b(r, q) for r in orders if r > 0]
    return E_C * np.sort(values)[:k]


def hermiticity_residual(op, rng=None, trials=4):
    """max |<u, H v> - <H u, v>| over random unit vector pairs of a ProductOperator."""
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(np.vdot(u, op.matvec(v)) - np.vdot(op.matvec(u), v)))
    return worst


def match_rows_up_to_sign_and_order(got, expected, atol):
    """Assert two matrices agree after permuting/sign-flipping rows of ``got``.

    Each expected row is greedily matched to the unused got row with the
    largest |dot|, then sign-aligned.  Returns the reordered got matrix.
    """
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    used = set()
    reordered = np.zeros_like(expected)
    for i, row in enumerate(expected):
        overlaps = [
            (abs(row @ got[j]), j) for j in range(got.shape[0]) if j not in used
        ]
        _, best = max(overlaps)
        used.add(best)
        candidate = got[best] if row @ got[best] >= 0 else -got[best]
        reordered[i] = candidate
    np.testing.assert_allclose(reordered, expected, atol=atol)
    return reordered
