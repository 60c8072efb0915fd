"""The benchmark's traced instrument still fits the library it wraps.

``bench/layers.py`` replaces library functions by name and reads fields
of what they return, so a renamed or removed name would only show as an
AttributeError in a traced benchmark run.  This runs a tiny traced
pipeline through the same wrappers and checks that every per-layer
figure the benchmark declares comes out.
"""

import json
import math
import pathlib
import sys

import numpy as np

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import spans  # noqa: E402
from scmodes import decouple, freemode, io, spectrum  # noqa: E402

from conftest import CPB_PATH, FLUXONIUM_PATH  # noqa: E402


def declared_layer_figures():
    """Per-layer figure names of BENCHMARK.json, less the one bench/run.py computes."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}


def test_traced_pipeline_yields_every_layer_figure():
    tracer, rec = spans.Tracer(), layers.Recorder()
    with spans.patched(layers.instrument(tracer, rec)):
        H = io.load_hamiltonian(str(FLUXONIUM_PATH))
        H_red, _, _ = freemode.remove_free_modes(H)
        H_fs = decouple.apply_method(H_red, "fs").H_out
        spectrum.solve(H_fs, [4] * H_fs.n, k=4)
        spectrum.adaptive_cutoffs(H_fs, epsilon=1e-3, d_init=4)
    figures = {**layers.layer_metrics(tracer, rec), **layers.kernel_metrics(rec)}

    assert len(figures) == 36
    assert set(figures) == declared_layer_figures()
    assert all(math.isfinite(v) for v in figures.values())
    # every wrapper this pipeline passes through recorded something
    for name in (
        "io.load_s",
        "model.validate_calls",
        "freemode.remove_s",
        "decouple.fs_s",
        "symplectic.block_williamson_s",
        "canonical.apply_s",
        "spectrum.local_builds",
        "spectrum.local_requests",
        "spectrum.assemble_s",
        "spectrum.coupling_terms.cosine",
        "spectrum.matvec_vectors",
        "spectrum.matvec_flops",
        "spectrum.eigensolves",
        "spectrum.to_dense_s",
        "spectrum.dense_eigh_s",
        "spectrum.rdm_s",
        "spectrum.adaptive_rounds",
        "spectrum.kernel.diag_ms",
    ):
        assert figures[name] > 0, name


def test_traced_charge_mode_yields_dense_figures():
    # The reduced Cooper-pair box, solved densely: the flop model reads
    # real_basis of its parity-adapted charge mode.
    tracer, rec = spans.Tracer(), layers.Recorder()
    with spans.patched(layers.instrument(tracer, rec)):
        H_red, _, _ = freemode.remove_free_modes(io.load_hamiltonian(str(CPB_PATH)))
        spectrum.spectrum_vs_cutoff(H_red, 4, [6, 8])
    figures = layers.layer_metrics(tracer, rec)

    locals_, _, _, op = rec.largest
    assert op.dtype == np.float64 and all(loc.real_basis for loc in locals_)
    for name in ("spectrum.matvec_flops", "spectrum.to_dense_s", "spectrum.dense_eigh_s"):
        assert math.isfinite(figures[name]) and figures[name] > 0, name
