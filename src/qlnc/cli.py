"""Command-line front end.

Subcommands:
    validate      check a network file, printing violations
    run-classical execute the classical code on an input vector
    run-coherent  coherent simulation (free or constrained corrections)
    compile-mbqc  emit the one-way geometry as JSON
    run-mbqc      execute the compiled one-way procedure
    compare       run classical, coherent, and one-way paths and report
                  pairwise fidelities
    counts        resource tally of the one-way compilation

Exit codes: 0 success, 1 validation failure, 2 unsupported network
(non-injective composite map), 3 impossible forced outcome, 4 beyond a
memory or enumeration limit (a basis input register or one run's live
register beyond physical memory; for --exhaustive, a live register or a
branch count beyond the enumeration limit), 64 usage error (a bad flag or
flag combination, an unreadable or malformed --input-state file, or an
--out path that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
import warnings

import numpy as np

from .coherent import _geometry_of, run_coherent
from .files import dump_json, load_input_state, load_network
from .geometry import compile_network, resource_counts
from .mbqc import _check_memory, _plan_for, _program, _survey, oracle_output_state, run_mbqc
from .network import (
    InvalidNetworkError,
    UnsupportedNetworkError,
    composite_map,
    run_classical,
    validate,
)
from .states import ImpossibleOutcomeError, QuditState, fidelity

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSUPPORTED = 2
EXIT_IMPOSSIBLE = 3
EXIT_MEMORY = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # parsing keeps no state on the parser, so in-process callers share one
def _build_parser():
    parser = _Parser(prog="qlnc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, quantum=False, runs=False):
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if quantum:
            given = p.add_mutually_exclusive_group()
            given.add_argument("--input", help="basis input, e.g. '1,0'")
            given.add_argument("--input-state", help="amplitude JSON file")
            p.add_argument("--mode", choices=("free", "constrained"), default="free")
            p.add_argument("--seed", type=int, default=0, help="sampling seed")
            p.add_argument(
                "--timings", action="store_true", help="include wall time in the report"
            )
        if runs:
            branches = p.add_mutually_exclusive_group()
            branches.add_argument(
                "--force-outcomes",
                help="comma-separated outcomes in schedule measurement order",
            )
            branches.add_argument(
                "--exhaustive",
                action="store_true",
                help="sweep every forced-outcome branch instead of one run",
            )

    common(sub.add_parser("validate", help="check the network file"))
    p = sub.add_parser("run-classical", help="run the classical linear code")
    common(p)
    p.add_argument("--input", required=True, help="input vector, e.g. '1,0'")

    p = sub.add_parser("run-coherent", help="coherent simulation")
    common(p, quantum=True, runs=True)
    p = sub.add_parser("run-mbqc", help="one-way (graph state) execution")
    common(p, quantum=True, runs=True)
    p.add_argument(
        "--local-aux",
        action="store_true",
        help="constrained mode only: correct auxiliary byproducts at each node",
    )
    p = sub.add_parser("compare", help="agreement of all execution paths")
    common(p, quantum=True)

    common(sub.add_parser("compile-mbqc", help="emit the one-way geometry"))
    common(sub.add_parser("counts", help="resource counts of the compilation"))
    return parser


def _load_valid_network(args):
    try:
        net = load_network(args.network)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load network: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    violations = validate(net)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return net


def _parse_vector(text, d, expect):
    try:
        vec = [int(x) % d for x in text.split(",")]
    except ValueError:
        print(f"error: cannot parse vector {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if len(vec) != expect:
        print(f"error: expected {expect} entries, got {len(vec)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return vec


def _input_state(args, net):
    k = net.num_inputs
    if args.input_state:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                state = load_input_state(args.input_state, net.d, k)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load input state: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        for caution in caught:  # the renormalization notice
            print(f"warning: {caution.message}", file=sys.stderr)
        return state
    vec = _parse_vector(args.input, net.d, k) if args.input else [0] * k
    _check_memory(net.d, k, 0)  # the basis state holds d^k amplitudes
    return QuditState.basis(net.d, vec)


def _emit(doc, args):
    text = "\n".join(_as_text(doc)) + "\n" if args.format == "text" else dump_json(doc)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _as_text(doc, prefix=""):
    lines = []
    for key, val in doc.items():
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_as_text(val, prefix + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{prefix}{key}: [{len(val)} entries]")
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


# Exit code of each error a command may raise, most specific first: the
# library's errors subclass ValueError, which stands for a flag combination
# the library rejects.
_EXIT_CODES = (
    (UnsupportedNetworkError, EXIT_UNSUPPORTED),
    (ImpossibleOutcomeError, EXIT_IMPOSSIBLE),
    (InvalidNetworkError, EXIT_INVALID),
    (MemoryError, EXIT_MEMORY),
    (ValueError, EXIT_USAGE),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _emit(_document(args), args)
    except SystemExit as exc:
        return EXIT_OK if exc.code is None else exc.code
    except tuple(cls for cls, _code in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


def _document(args):
    """The document the command of `args` reports."""
    net = _load_valid_network(args)

    if args.command == "validate":
        return {"version": 1, "path": "validate", "violations": []}

    if args.command == "run-classical":
        s = _parse_vector(args.input, net.d, net.num_inputs)
        return {
            "version": 1,
            "path": "classical",
            "d": net.d,
            "input": list(map(int, s)),
            "outputs": [int(x) for x in run_classical(net, s)],
        }

    if args.command == "counts":
        counts = resource_counts(net, compile_network(net))
        return {"version": 1, "path": "counts", "d": net.d, **counts.to_dict()}

    if args.command == "compile-mbqc":
        return compile_network(net).to_dict()

    state = _input_state(args, net)
    t0 = time.perf_counter()
    # both paths run on the geometry run_coherent keeps on the network
    geometry = _geometry_of(net)
    if args.command == "compare":
        doc = _compare_doc(net, geometry, state, args)
    elif args.exhaustive:
        doc = _sweep_doc(net, geometry, state, args)
    else:
        forced = [int(x) for x in args.force_outcomes.split(",")] if args.force_outcomes else None
        run = dict(mode=args.mode, seed=args.seed, forced=forced)
        if args.command == "run-coherent":
            _out, report = run_coherent(net, state, **run)
        else:
            _out, report = run_mbqc(geometry, state, local_aux=args.local_aux, **run)
        report.seed = None if forced else args.seed
        doc = report.to_dict()
    if args.timings:
        doc["wall_time_ms"] = 1000 * (time.perf_counter() - t0)
    return doc


def _sweep_doc(net, geometry, state, args):
    """The --exhaustive document of either path: its branch count and the
    least fidelity of a branch against the oracle."""
    coherent = args.command == "run-coherent"
    plan = _plan_for(geometry, args.mode, getattr(args, "local_aux", False))
    count, worst = _survey(plan, state, coherent=coherent)
    return {
        "version": 1,
        "path": "coherent-exhaustive" if coherent else "mbqc-exhaustive",
        "d": net.d,
        "mode": args.mode,
        "branches": count,
        "min_fidelity_vs_oracle": worst,
        "resource_counts": resource_counts(net, geometry).to_dict(),
        "wall_time_ms": None,
    }


def _compare_doc(net, geometry, state, args):
    plan = _plan_for(geometry, args.mode)
    for coherent in (True, False):  # either run is refused before the loop over all inputs
        prog = _program(plan, coherent)
        _check_memory(net.d, prog.peak, prog.table_bytes)
    M = composite_map(net)
    classical_ok = all(np.array_equal(run_classical(net, np.asarray(s)), M.mul_vec(np.asarray(s)))
                       for s in itertools.product(range(net.d), repeat=net.num_inputs))
    choh, _rep_c = run_coherent(net, state, mode=args.mode, seed=args.seed)
    mout, _rep_m = run_mbqc(geometry, state, mode=args.mode, seed=args.seed)
    oracle = oracle_output_state(M, state)
    return {
        "version": 1,
        "path": "compare",
        "d": net.d,
        "mode": args.mode,
        "seed": args.seed,
        "classical_matches_composite": classical_ok,
        "fidelities": {
            "coherent_vs_oracle": fidelity(choh, oracle),
            "mbqc_vs_oracle": fidelity(mout, oracle),
            "coherent_vs_mbqc": fidelity(choh, mout),
        },
        "resource_counts": resource_counts(net, geometry).to_dict(),
    }


if __name__ == "__main__":
    sys.exit(main())
