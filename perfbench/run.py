"""Benchmark of qlnc: one workload, one process, one thread.

    python3 perfbench/run.py --workload shots|sweep|plan --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  The run generates the workload's networks from the seed, writes
them as network files, then

1. repeats whole rounds of the workload's ops for about --seconds (and at
   least the workload's minimum number of rounds), checking every op
   against the benchmark's own references;
2. sets up SETUP_REPS times, spread over the run (import qlnc afresh, load
   every network through qlnc.files, validate, compile), and reports the
   median as setup_s;
3. prints a line with the machine and the attempted/failed counts, and, as
   the last line, the result JSON: end-to-end metrics with --trace 0,
   per-layer metrics (qlnc wrapped by tracing.Tracer) with --trace 1.

Results and traces are also written under perfbench/out/.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 15

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(seed):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def write_networks(wl, seed):
    """Network files for every case; the program reads only these."""
    folder = OUT / f"nets-{wl.name}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(wl.cases):
        path = folder / f"{i:03d}-{case.name}.json"
        path.write_text(json.dumps(case.doc), encoding="utf-8")
        paths.append(path)
    return paths


def setup_once(paths):
    """Import qlnc afresh, then load, validate and compile every network."""
    for name in [n for n in sys.modules if n == "qlnc" or n.startswith("qlnc.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    qlnc = importlib.import_module("qlnc")
    files = importlib.import_module("qlnc.files")
    nets = [files.load_network(p) for p in paths]
    for p, net in zip(paths, nets):
        violations = qlnc.validate(net)
        if violations:
            raise SystemExit(f"error: {p.name} is invalid: {violations}")
    geometries = [qlnc.compile_network(net) for net in nets]
    elapsed = time.perf_counter() - t0
    return elapsed, qlnc, nets, geometries


class Session:
    """The current import of qlnc with the workload's networks loaded.

    `setup` imports qlnc afresh and records how long set-up took.  Set-ups
    are spread over the run (see `run_ops`), so their median sees the same
    stretch of machine time as the ops.  A traced run patches every import.
    """

    def __init__(self, paths, tracer):
        self.paths = paths
        self.tracer = tracer
        self.setups = []
        self.setup()

    def setup(self):
        elapsed, self.api, self.nets, self.geometries = setup_once(self.paths)
        self.setups.append(elapsed)
        if not Path(self.api.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: qlnc imported from {self.api.__file__}, not {SRC}")
        if self.tracer is not None:
            self.tracer.install(
                {n: m for n, m in sys.modules.items() if n == "qlnc" or n.startswith("qlnc.")}
            )
        gc.collect()


def run_ops(wl, session, seconds):
    latencies = []
    passed = 0
    by_exception = Counter()
    by_check = Counter()
    by_kind = {}
    rounds = 0
    start = time.perf_counter()
    # whole rounds only; stop before a round that would end past `seconds`
    while rounds < wl.min_rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for op in wl.ops:
            case = wl.cases[op.case]
            t0 = time.perf_counter()
            try:
                result, untimed = workloads.execute(
                    session.api, op, session.nets[op.case], session.geometries[op.case], case
                )
            except Exception as exc:  # a failed op: counted, timed until it raised
                dt = time.perf_counter() - t0
                by_exception[f"{op.kind}:{type(exc).__name__}"] += 1
                if not workloads.failure_allowed(op, exc):
                    by_check[f"{op.kind}:raised {type(exc).__name__}"] += 1
            else:
                dt = time.perf_counter() - t0 - untimed
                fails = workloads.check(op, case, result)
                del result
                for name in fails:
                    by_check[f"{op.kind}:{name}"] += 1
                if not fails:
                    passed += 1
            latencies.append(dt)
            by_kind.setdefault(op.kind, []).append(dt)
        rounds += 1
        # set-ups due by now, at an even pace over the run
        due = 1 + (SETUP_REPS - 1) * min(1.0, (time.perf_counter() - start) / seconds)
        while len(session.setups) < int(due):
            session.setup()
    while len(session.setups) < SETUP_REPS:
        session.setup()
    return {
        "latencies": latencies,
        "passed": passed,
        "by_exception": dict(by_exception),
        "by_check": dict(by_check),
        "rounds": rounds,
        "by_kind_ms_p50": {
            k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "qlnc" / "__init__.py").is_file():
        print(f"error: no qlnc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.BUILDERS[args.workload](args.seed)
    paths = write_networks(wl, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    session = Session(paths, tracer)
    res = run_ops(wl, session, args.seconds)
    setups = session.setups
    lat = sorted(res["latencies"])
    attempted = len(lat)
    failed = attempted - res["passed"]
    op_seconds = sum(lat)
    correct = not res["by_check"]

    if attempted * (1 - wl.tail_q) < 10:
        raise SystemExit(f"error: {attempted} ops leave fewer than ten beyond p{100 * wl.tail_q:g}")
    end_to_end = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": res["passed"] / op_seconds, "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 * float(np.percentile(lat, 50)), "unit": "ms"},
        "op_ms_tail": {"value": 1e3 * float(np.percentile(lat, 100 * wl.tail_q)), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    info = {
        "workload": wl.name,
        **machine(args.seed),
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_by_exception": res["by_exception"],
        "failed_by_check": res["by_check"],
        "rounds": res["rounds"],
        "ops_per_round": len(wl.ops),
        "op_ms_tail_percentile": 100 * wl.tail_q,
        "setup_s_samples": setups,
        "end_to_end": end_to_end,
        "by_kind_ms_p50": res["by_kind_ms_p50"],
    }
    metrics = end_to_end if not args.trace else tracer.per_layer(attempted)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"run": info, "result": result}, indent=1), encoding="utf-8"
    )
    if tracer is not None:
        (OUT / f"trace-{wl.name}-seed{args.seed}.json").write_text(
            json.dumps(tracer.dump()), encoding="utf-8"
        )
    brief = ("end_to_end", "by_kind_ms_p50", "setup_s_samples")
    print(json.dumps({"run": {k: v for k, v in info.items() if k not in brief}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
