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
(non-injective composite map), 3 impossible forced outcome, 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

import numpy as np

from .coherent import exhaustive_coherent, run_coherent
from .files import dump_json, load_input_state, load_network
from .geometry import compile_network, resource_counts
from .mbqc import branch_survey, oracle_output_state, run_mbqc
from .network import (
    InvalidNetworkError,
    UnsupportedNetworkError,
    composite_map,
    run_classical,
    validate,
)
from .ring import is_injective
from .states import ImpossibleOutcomeError, QuditState, fidelity

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSUPPORTED = 2
EXIT_IMPOSSIBLE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="qlnc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, quantum=False):
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if quantum:
            p.add_argument("--input", help="basis input, e.g. '1,0'")
            p.add_argument("--input-state", help="amplitude JSON file")
            p.add_argument("--mode", choices=("free", "constrained"), default="free")
            p.add_argument("--seed", type=int, default=0, help="sampling seed")
            p.add_argument(
                "--force-outcomes",
                help="comma-separated outcomes in schedule measurement order",
            )
            p.add_argument(
                "--exhaustive",
                action="store_true",
                help="sweep every forced-outcome branch instead of one run",
            )
            p.add_argument(
                "--timings", action="store_true", help="include wall time in the report"
            )

    common(sub.add_parser("validate", help="check the network file"))
    p = sub.add_parser("run-classical", help="run the classical linear code")
    common(p)
    p.add_argument("--input", required=True, help="input vector, e.g. '1,0'")

    p = sub.add_parser("run-coherent", help="coherent simulation")
    common(p, quantum=True)
    p = sub.add_parser("run-mbqc", help="one-way (graph state) execution")
    common(p, quantum=True)
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
            return load_input_state(args.input_state, net.d, k)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load input state: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    if args.input:
        return QuditState.basis(net.d, _parse_vector(args.input, net.d, k))
    return QuditState.basis(net.d, [0] * k)


def _forced(args):
    if not getattr(args, "force_outcomes", None):
        return None
    return [int(x) for x in args.force_outcomes.split(",")]


def _emit(doc, args):
    if args.format == "text":
        lines = _as_text(doc)
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        text = dump_json(doc, args.out)
        if args.out is None:
            sys.stdout.write(text)


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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _dispatch(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except UnsupportedNetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ImpossibleOutcomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except InvalidNetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:  # a flag combination the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    net = _load_valid_network(args)

    if args.command == "validate":
        _emit({"version": 1, "path": "validate", "violations": []}, args)
        return EXIT_OK

    if args.command == "run-classical":
        s = _parse_vector(args.input, net.d, net.num_inputs)
        t = run_classical(net, s)
        _emit(
            {
                "version": 1,
                "path": "classical",
                "d": net.d,
                "input": list(map(int, s)),
                "outputs": [int(x) for x in t],
            },
            args,
        )
        return EXIT_OK

    if args.command == "counts":
        geometry = compile_network(net)
        counts = resource_counts(net, geometry)
        _emit({"version": 1, "path": "counts", "d": net.d, **counts.to_dict()}, args)
        return EXIT_OK

    if args.command == "compile-mbqc":
        geometry = compile_network(net)
        _emit(geometry.to_dict(), args)
        return EXIT_OK

    state = _input_state(args, net)
    forced = _forced(args)
    t0 = time.perf_counter()

    if args.command == "run-coherent":
        if args.exhaustive:
            doc = _exhaustive_coherent_doc(net, state, args)
        else:
            _out, report = run_coherent(
                net, state, mode=args.mode, seed=args.seed, forced=forced
            )
            report.seed = None if forced else args.seed
            if args.timings:
                report.wall_time_ms = 1000 * (time.perf_counter() - t0)
            doc = report.to_dict()
        _emit(doc, args)
        return EXIT_OK

    if args.command == "run-mbqc":
        geometry = compile_network(net)
        if args.exhaustive:
            count, fid = branch_survey(
                geometry, state, mode=args.mode, local_aux=args.local_aux
            )
            doc = {
                "version": 1,
                "path": "mbqc-exhaustive",
                "d": net.d,
                "mode": args.mode,
                "branches": count,
                "min_fidelity_vs_oracle": fid,
                "resource_counts": resource_counts(net, geometry).to_dict(),
                "wall_time_ms": 1000 * (time.perf_counter() - t0) if args.timings else None,
            }
        else:
            _out, report = run_mbqc(
                geometry,
                state,
                mode=args.mode,
                seed=args.seed,
                forced=forced,
                local_aux=args.local_aux,
            )
            report.seed = None if forced else args.seed
            if args.timings:
                report.wall_time_ms = 1000 * (time.perf_counter() - t0)
            doc = report.to_dict()
        _emit(doc, args)
        return EXIT_OK

    if args.command == "compare":
        doc = _compare_doc(net, state, args)
        if args.timings:
            doc["wall_time_ms"] = 1000 * (time.perf_counter() - t0)
        _emit(doc, args)
        return EXIT_OK

    raise SystemExit(EXIT_USAGE)


def _exhaustive_coherent_doc(net, state, args):
    M = composite_map(net)
    if not is_injective(M):
        raise UnsupportedNetworkError("composite map is not injective")
    oracle = oracle_output_state(M, state)
    count = 0
    worst = 1.0
    for _outcomes, out in exhaustive_coherent(net, state, mode=args.mode):
        worst = min(worst, fidelity(out, oracle))
        count += 1
    return {
        "version": 1,
        "path": "coherent-exhaustive",
        "d": net.d,
        "mode": args.mode,
        "branches": count,
        "min_fidelity_vs_oracle": worst,
    }


def _compare_doc(net, state, args):
    M = composite_map(net)
    classical_ok = True
    for s in itertools.product(range(net.d), repeat=net.num_inputs):
        lhs = run_classical(net, np.asarray(s))
        rhs = M.mul_vec(np.asarray(s))
        if not np.array_equal(lhs, rhs):
            classical_ok = False
            break
    geometry = compile_network(net)
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
