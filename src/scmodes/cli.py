"""Command-line interface.

Subcommands make each pipeline a reproducible command over a Hamiltonian
JSON file: inspect, remove-free, decouple, spectrum, converge, rdm, and
adaptive-cutoffs.  The spectrum family always removes free modes first
and then applies the selected decoupling method (or none).  Diagnostics
go to stderr; data goes to stdout or --output.  Exit code 0 means no
errors.
"""

from __future__ import annotations

import argparse
import sys

from . import canonical, decouple, freemode, io, spectrum

_ERRORS = (ValueError, RuntimeError)  # bad input, failed numerics

_METHODS = [m.value for m in decouple.DecoupleMethod]


def _parse_ints(text: str) -> list[int]:
    """The integers of a comma-separated --cutoff list, at least one.

    Whether they are valid cutoffs is the library's rule, not the parser's.
    """
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"bad --cutoff {text!r}: expected an integer "
                         "or a comma-separated integer list")
    return values


def _check_ranges(args):
    """Reject a bad --k, --epsilon, --threshold, --max-sweeps or --state
    before any file is read, with the library's messages."""
    if getattr(args, "k", 1) < 1:
        raise ValueError(f"k = {args.k} must be at least 1")
    epsilon = getattr(args, "epsilon", 0.5)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not epsilon < 1:
        raise ValueError("epsilon must be below 1")
    if not 0 <= getattr(args, "threshold", 0.0) < 1:
        raise ValueError(f"threshold = {args.threshold} must lie in [0, 1)")
    if getattr(args, "max_sweeps", 0) < 0:
        raise ValueError(f"max_sweeps = {args.max_sweeps} must be >= 0")
    if getattr(args, "state", 0) < 0:
        raise ValueError(f"--state must be >= 0, got {args.state}")


def _prepare(args):
    """Load, remove free modes (which validates), and apply the decoupling method."""
    H = io.load_hamiltonian(args.input)
    H_red, _, report = freemode.remove_free_modes(H, args.threshold)
    if report.F:
        print(f"removed {report.F} free mode(s)", file=sys.stderr)
    if args.method != "none":
        H_red = decouple.apply_method(H_red, args.method).H_out
    return H_red


def _resolve_cutoffs(H, args):
    """Per-mode cutoffs from --cutoff: adaptive, one uniform dimension, or one per mode."""
    if args.cutoff == "adaptive":
        return list(spectrum.adaptive_cutoffs(H, epsilon=args.epsilon))
    values = _parse_ints(args.cutoff)
    return values * H.n if len(values) == 1 else values


def cmd_inspect(args) -> int:
    H = io.load_hamiltonian(args.input)
    report = freemode.count_free_modes(H, args.threshold)
    off = canonical.offdiag_norm(H)
    print(f"n={H.n}, n_J={H.n_J}, F={report.F}, offdiag={off:.3g}")
    kinds = ",".join(k.value for k in H.kinds)
    print(f"mode_kinds={kinds}")
    return 0


def cmd_remove_free(args) -> int:
    H = io.load_hamiltonian(args.input)
    H_red, T, report = freemode.remove_free_modes(H, args.threshold)
    io.save_hamiltonian(H_red, args.output)
    io.save_transform(T, _transform_path(args.output))
    print(f"F={report.F}", file=sys.stderr)
    return 0


def _transform_path(output: str) -> str:
    if output.endswith(".json"):
        return output[: -len(".json")] + ".transform.json"
    return output + ".transform.json"


def cmd_decouple(args) -> int:
    H = io.load_hamiltonian(args.input)
    result = decouple.apply_method(H, args.method, max_sweeps=args.max_sweeps)
    if args.output:
        io.save_hamiltonian(result.H_out, args.output)
        io.save_transform(result.T, _transform_path(args.output))
    io.write_csv(
        [(result.method.value, result.offdiag_before, result.offdiag_after, result.iterations)],
        header=["method", "offdiag_before", "offdiag_after", "iterations"],
    )
    return 0


def cmd_spectrum(args) -> int:
    H = _prepare(args)
    cutoffs = _resolve_cutoffs(H, args)
    result = spectrum.solve(H, cutoffs, k=args.k)
    rows = [(i, e) for i, e in enumerate(result.eigenvalues)]
    io.write_csv(rows, header=["level", "energy"], path=args.output)
    print(f"cutoffs={','.join(str(d) for d in cutoffs)}", file=sys.stderr)
    return 0


def cmd_converge(args) -> int:
    d_values = sorted(set(_parse_ints(args.cutoff)))
    H = _prepare(args)
    rows = [(d, *energies) for d, energies in spectrum.spectrum_vs_cutoff(H, args.k, d_values)]
    header = ["d"] + [f"E{i}" for i in range(args.k)]
    io.write_csv(rows, header=header, path=args.output)
    return 0


def cmd_rdm(args) -> int:
    H = _prepare(args)
    cutoffs = _resolve_cutoffs(H, args)
    result = spectrum.solve(H, cutoffs, k=args.state + 1)
    rows = []
    for mode in range(H.n):
        pops = spectrum.reduced_density_matrix(result, args.state, mode).diagonal().real
        for m, p in enumerate(pops):
            rows.append((mode, m, p))
    io.write_csv(rows, header=["mode", "m", "rho_mm"], path=args.output)
    return 0


def cmd_adaptive_cutoffs(args) -> int:
    H = _prepare(args)
    cutoffs = spectrum.adaptive_cutoffs(H, epsilon=args.epsilon)
    rows = [(m, d) for m, d in enumerate(cutoffs)]
    io.write_csv(rows, header=["mode", "cutoff"], path=args.output)
    return 0


_OPTIONS = {
    "--k": dict(type=int, default=10, help="number of eigenvalues"),
    "--epsilon": dict(type=float, default=spectrum.ADAPTIVE_EPSILON,
                      help="adaptive-cutoff population threshold"),
    "--cutoff": dict(default="adaptive",
                     help="'adaptive', a uniform dimension, or a per-mode list"),
}


def _add_common(parser, *options):
    """Options of every spectrum-family command, plus the named ones of ``_OPTIONS``."""
    parser.add_argument("--input", required=True, help="Hamiltonian JSON file")
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--threshold", type=float, default=freemode.DEFAULT_THRESHOLD,
                        help="free-mode singular-value threshold (relative)")
    parser.add_argument("--method", choices=["none", *_METHODS],
                        default="none", help="decoupling method")
    for name in options:
        parser.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmodes",
        description="Free-mode removal, mode decoupling, and spectra "
                    "for superconducting-circuit Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="validate and summarize a Hamiltonian file")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=freemode.DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("remove-free", help="remove free modes; write reduced file + transform")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=float, default=freemode.DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_remove_free)

    p = sub.add_parser("decouple", help="apply a decoupling transform; report offdiag norms")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--max-sweeps", type=int, default=decouple.SAD_MAX_SWEEPS)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("spectrum", help="k lowest eigenvalues as CSV")
    _add_common(p, "--k", "--epsilon", "--cutoff")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("converge", help="eigenvalues vs uniform cutoff as CSV")
    _add_common(p, "--k")
    p.add_argument("--cutoff", required=True,
                   help="comma-separated uniform dimensions to sweep")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("rdm", help="reduced-density-matrix diagonals as CSV")
    _add_common(p, "--epsilon", "--cutoff")
    p.add_argument("--state", type=int, default=0, help="eigenstate index")
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("adaptive-cutoffs", help="per-mode adaptive cutoffs as CSV")
    _add_common(p, "--epsilon")
    p.set_defaults(func=cmd_adaptive_cutoffs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
