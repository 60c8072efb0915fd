"""Per-layer metrics of scmodes, read from spans around its public functions.

``instrument`` lists the attributes the traced worker replaces;
``layer_metrics`` turns the spans of one round into the per-layer
figures; ``kernel_metrics`` times one matvec per term class on the
largest operator the round assembled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from scmodes import canonical, decouple, freemode, io, model, spectrum, symplectic

KERNEL_REPEATS = 9


class Recorder:
    """What the spans alone do not carry: builder requests and the largest operator."""

    def __init__(self):
        self.local_requests = 0
        self.largest = None  # (locals_, H, couplings, operator)


def instrument(tracer, rec):
    """(owner, attribute, wrapper) for every public function the trace covers."""
    wrap = tracer.wrap

    def counting_builders(make):
        def make_locals_builder(H):
            build = make(H)

            def counted(mode, keep):
                rec.local_requests += 1
                return build(mode, keep)

            return counted

        return make_locals_builder

    def note_operator(args, op):
        if rec.largest is None or op.dim > rec.largest[3].dim:
            rec.largest = (args[0], args[1], args[2], op)
        return {"dims": list(op.dims)}

    require_valid = wrap(model.require_valid, "model.require_valid")
    po = spectrum.ProductOperator
    return [
        (io, "load_hamiltonian", wrap(io.load_hamiltonian, "io.load")),
        (io, "save_hamiltonian", wrap(io.save_hamiltonian, "io.save")),
        (io, "save_transform", wrap(io.save_transform, "io.save")),
        (model, "validate", wrap(model.validate, "model.validate")),
        *[(mod, "require_valid", require_valid) for mod in (model, freemode, decouple, spectrum)],
        (freemode, "remove_free_modes", wrap(
            freemode.remove_free_modes, "freemode.remove", lambda a, r: {"F": r[2].F})),
        (decouple, "simultaneous_approx_diag", wrap(
            decouple.simultaneous_approx_diag, "decouple.sad",
            lambda a, r: {"sweeps": r.iterations})),
        (decouple, "inductor_symplectic", wrap(decouple.inductor_symplectic, "decouple.ios")),
        (decouple, "full_symplectic", wrap(decouple.full_symplectic, "decouple.fs")),
        (symplectic, "block_williamson", wrap(
            symplectic.block_williamson, "symplectic.block_williamson")),
        (canonical, "apply", wrap(canonical.apply, "canonical.apply")),
        (spectrum, "make_locals_builder", counting_builders(spectrum.make_locals_builder)),
        (spectrum, "build_local_mode", wrap(spectrum.build_local_mode, "spectrum.local_build")),
        (spectrum, "assemble_hamiltonian", wrap(
            spectrum.assemble_hamiltonian, "spectrum.assemble", note_operator)),
        (spectrum, "eigensolve", wrap(
            spectrum.eigensolve, "spectrum.eigensolve", lambda a, r: {"dim": a[0].dim})),
        (spectrum, "reduced_density_matrix", wrap(spectrum.reduced_density_matrix, "spectrum.rdm")),
        (spectrum, "adaptive_cutoffs", wrap(spectrum.adaptive_cutoffs, "spectrum.adaptive")),
        (po, "matvec", wrap(po.matvec, "spectrum.matvec", lambda a, r: {"vectors": 1})),
        (po, "matmat", wrap(
            po.matmat, "spectrum.matvec", lambda a, r: {"vectors": int(np.shape(a[1])[1])})),
        (po, "to_dense", wrap(po.to_dense, "spectrum.to_dense")),
        (scipy.linalg, "eigh", wrap(scipy.linalg.eigh, "scipy.eigh")),
        (scipy.sparse.linalg, "eigsh", wrap(scipy.sparse.linalg.eigsh, "scipy.eigsh")),
    ]


def layer_metrics(tracer, rec):
    """Per-layer figures of one traced round; times are inclusive of nested layers."""
    t = tracer
    infos = lambda name: [s[4] for s in t.spans if s[0] == name and s[4]]  # noqa: E731
    matvec_s = t.total("spectrum.matvec")
    vectors = sum(i["vectors"] for i in infos("spectrum.matvec"))
    builds = t.count("spectrum.local_build")
    requests = rec.local_requests
    own = t.self_times()
    couplings = rec.largest[2] if rec.largest else spectrum.CouplingSet((), (), ())
    return {
        "io.load_s": t.total("io.load"),
        "io.save_s": t.total("io.save"),
        "model.validate_s": t.total("model.require_valid", "model.validate"),
        "model.validate_calls": t.count("model.validate"),
        "freemode.remove_s": t.total("freemode.remove"),
        "freemode.free_modes": sum(i["F"] for i in infos("freemode.remove")),
        "decouple.sad_s": t.total("decouple.sad"),
        "decouple.sad_sweeps": sum(i["sweeps"] for i in infos("decouple.sad")),
        "decouple.ios_s": t.total("decouple.ios"),
        "decouple.fs_s": t.total("decouple.fs"),
        "symplectic.block_williamson_s": t.total("symplectic.block_williamson"),
        "canonical.apply_s": t.total("canonical.apply"),
        "spectrum.local_build_s": t.total("spectrum.local_build"),
        "spectrum.local_builds": builds,
        "spectrum.local_requests": requests,
        "spectrum.local_reuse_ratio": (requests - builds) / requests if requests else 0.0,
        "spectrum.assemble_s": t.total("spectrum.assemble"),
        "spectrum.coupling_terms": len(couplings.charge) + len(couplings.flux) + len(couplings.cosines),
        "spectrum.coupling_terms.charge": len(couplings.charge),
        "spectrum.coupling_terms.flux": len(couplings.flux),
        "spectrum.coupling_terms.cosine": len(couplings.cosines),
        "spectrum.matvec_s": matvec_s,
        "spectrum.matvec_vectors": vectors,
        "spectrum.matvec_ms_per_vector": 1e3 * matvec_s / vectors if vectors else 0.0,
        "spectrum.matvec_flops": matvec_flops(
            rec.largest[0], couplings, np.dtype(rec.largest[3].dtype).kind == "c")
        if rec.largest else 0,
        "spectrum.arpack_s": t.total("scipy.eigsh"),
        "spectrum.arpack_self_s": sum(
            own[i] for i, s in enumerate(t.spans) if s[0] == "scipy.eigsh"),
        "spectrum.eigensolves": t.count("spectrum.eigensolve"),
        "spectrum.product_dim_max": max((i["dim"] for i in infos("spectrum.eigensolve")), default=0),
        "spectrum.to_dense_s": t.total("spectrum.to_dense"),
        "spectrum.dense_eigh_s": t.total("scipy.eigh"),
        "spectrum.rdm_s": t.total("spectrum.rdm"),
        "spectrum.adaptive_rounds": len(t.inside("spectrum.eigensolve", "spectrum.adaptive")),
    }


def matvec_flops(locals_, couplings, complex_vector):
    """Floating-point operations of one matvec, computed from dims and factor shapes.

    A d x d factor applied along one axis of a D-element vector costs
    d D multiply-adds: 2 operations each for a real factor on a real
    vector, 4 when one of the two is complex, 8 when both are.  Scaling
    and accumulating a term costs 2 D more, the diagonal D.  Quadratic
    factors and the single-mode cosine corrections are real when every
    local basis is; the product of phase factors in a cosine coupling is
    complex, and so is the vector after its first factor.
    """
    dims = [loc.dim for loc in locals_]
    D = int(np.prod(dims))
    real = all(loc.real_basis for loc in locals_)

    def mac(real_factor, complex_in):
        return {(True, False): 2, (True, True): 4, (False, False): 4}.get(
            (real_factor, complex_in), 8)

    quad = mac(real, complex_vector)
    flops = D
    for i, j, _ in couplings.charge + couplings.flux:
        flops += quad * (dims[i] + dims[j]) * D + 2 * D
    for cc in couplings.cosines:
        first, *rest = (dims[m] for m in cc.modes)
        flops += (mac(False, complex_vector) * first + 8 * sum(rest)) * D + 2 * D
        flops += sum(quad * dims[m] * D + 2 * D for m in cc.modes)
    return flops


def _matvec_ms(op, v):
    op.matvec(v)
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        op.matvec(v)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def kernel_metrics(rec):
    """One matvec per term class on the largest operator, less the diagonal-only one.

    Each class gets an operator that ``assemble_hamiltonian`` builds from
    a CouplingSet holding that class alone; a class without terms reads 0.
    """
    names = ("spectrum.kernel.diag_ms", "spectrum.kernel.quadratic_ms", "spectrum.kernel.cosine_ms")
    if rec.largest is None:
        return dict.fromkeys(names, 0.0)
    locals_, H, c, full = rec.largest
    CS = spectrum.CouplingSet
    rng = np.random.default_rng(0)
    v = rng.standard_normal(full.dim).astype(full.dtype)
    diag = _matvec_ms(spectrum.assemble_hamiltonian(locals_, H, CS((), (), ())), v)

    def extra(couplings, present):
        if not present:
            return 0.0
        return _matvec_ms(spectrum.assemble_hamiltonian(locals_, H, couplings), v) - diag

    return dict(zip(names, (
        diag,
        extra(CS(c.charge, c.flux, ()), c.charge or c.flux),
        extra(CS((), (), c.cosines), c.cosines),
    )))
