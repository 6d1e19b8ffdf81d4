"""Per-layer tracing of qlnc from outside the library.

`Tracer.install(modules)` replaces every public module-level function of
the traced qlnc modules, and every public method of `QuditState` and
`RunReport`, with a wrapper that counts its calls and times them.  A
function is patched under every name
that binds it in any qlnc module (so `mbqc.left_inverse` and
`ring.left_inverse` share one wrapper), which keeps the trace independent
of how the library arranges its private code.

Self time of a span is its duration minus the time covered by its child
spans.  Work counts that the library does not report (bit length of Smith
transforms, amplitudes touched by the state kernels, branch counts) are
computed from each call's arguments and results, outside the spans.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# modules on a workload's hot path; weyl, cli and bundled are never timed
TRACED_MODULES = ("ring", "network", "geometry", "states", "coherent", "mbqc", "report", "files")
TRACED_CLASSES = {"states": ("QuditState",), "report": ("RunReport",)}
STATE_KERNELS = ("apply_cz", "apply_cx", "apply_x", "apply_z", "fourier_branches", "append_qudits")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []  # seconds covered by the child spans of each open span

    # -- span bookkeeping ---------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, name, t0):
        t1 = time.perf_counter()
        covered = self._stack.pop()
        dt = t1 - t0
        self.total[name] += dt
        self.self_time[name] += dt - covered
        if self._stack:
            self._stack[-1] += dt
        return t1

    def _hide(self, t_start):
        """Charge the time since t_start (hook work) to no span."""
        if self._stack:
            self._stack[-1] += time.perf_counter() - t_start

    # -- wrappers -------------------------------------------------------

    def wrap(self, name, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, hook)

        def traced(*args, **kwargs):
            if pre is not None:
                h0 = time.perf_counter()
                pre(args, kwargs)
                self._hide(h0)
            self.calls[name] += 1
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self._leave(name, t0)
            if hook is not None:
                hook(args, kwargs, result)
                self._hide(t1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_generator(self, name, fn, hook):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    self._leave(name, t0)
                    return
                except BaseException:
                    self._leave(name, t0)
                    raise
                t1 = self._leave(name, t0)
                if hook is not None:
                    hook(args, kwargs, item)
                    self._hide(t1)
                yield item

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, modules):
        """Patch every public function and traced method; `modules` maps
        qualified module name to module object (all of qlnc)."""
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for cls_name in TRACED_CLASSES.get(short, ()):
                self._install_class(short, getattr(mod, cls_name))
        for modname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("qlnc."):
                    continue
                short = home.rsplit(".", 1)[-1]
                if short not in TRACED_MODULES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{short}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])

    def _install_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    # -- work counters computed from arguments and results --------------

    def _hook_ring_smith_normal_form(self, args, kwargs, result):
        bits = max((abs(v).bit_length() for m in result for row in m for v in row), default=0)
        self.maxima["ring.snf_max_bits"] = max(self.maxima["ring.snf_max_bits"], bits)

    def _pre_ring_find_block_diagonal_B(self, args, kwargs):
        m, blocks = args[0], args[1]
        self.counts["ring.block_system_cells"] += m.cols**2 * sum(len(b) ** 2 for b in blocks)

    def _state_kernel(self, args, kwargs, result, reads, writes):
        state = args[0]
        self.counts["states.amps_touched"] += state.d**state.n
        self.counts["states.bytes_moved_computed"] += 16 * (reads + writes)
        live = max(state.n, getattr(result, "n", 0))
        peak = self.maxima
        peak["states.peak_live_qudits"] = max(peak["states.peak_live_qudits"], live)
        peak["states.peak_live_amps"] = max(peak["states.peak_live_amps"], state.d**live)

    def _simple_kernel(self, args, kwargs, result):
        amps = args[0].d ** args[0].n
        self._state_kernel(args, kwargs, result, amps, amps)

    _hook_states_apply_cz = _simple_kernel
    _hook_states_apply_cx = _simple_kernel
    _hook_states_apply_x = _simple_kernel
    _hook_states_apply_z = _simple_kernel

    def _hook_states_fourier_branches(self, args, kwargs, result):
        # read the register, write the transformed tensor and the d
        # renormalized branch copies
        amps = args[0].d ** args[0].n
        self._state_kernel(args, kwargs, result, amps, 2 * amps)

    def _hook_states_append_qudits(self, args, kwargs, result):
        self._state_kernel(args, kwargs, result, args[0].d ** args[0].n, result.d**result.n)

    def _hook_mbqc_branch_survey(self, args, kwargs, result):
        self.counts["mbqc.branch_survey.branches"] += result[0]

    def _hook_coherent_exhaustive_coherent(self, args, kwargs, item):
        self.counts["coherent.exhaustive_coherent.branches"] += 1

    def _hook_files_dump_json(self, args, kwargs, result):
        self.counts["report.bytes"] += len(result.encode("utf-8"))

    # -- summary ----------------------------------------------------------

    def per_layer(self, ops):
        """Per-layer metrics, each per attempted op unless it is a maximum."""
        ms = lambda name: 1e3 * self.self_time.get(name, 0.0) / ops  # noqa: E731
        per_op = lambda value: value / ops  # noqa: E731

        def us_per_branch(name, counter):
            # whole walker time, kernels included, per branch visited
            n = self.counts.get(counter, 0)
            return 1e6 * self.total.get(name, 0.0) / n if n else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        put("ring.smith_normal_form.calls", per_op(self.calls["ring.smith_normal_form"]), "count")
        put("ring.smith_normal_form.self_ms", ms("ring.smith_normal_form"), "ms")
        put("ring.snf_max_bits", self.maxima["ring.snf_max_bits"], "bit")
        put("ring.left_inverse.self_ms", ms("ring.left_inverse"), "ms")
        put("ring.solve_modular.self_ms", ms("ring.solve_modular"), "ms")
        put("ring.find_block_diagonal_B.self_ms", ms("ring.find_block_diagonal_B"), "ms")
        put("ring.block_system_cells", per_op(self.counts["ring.block_system_cells"]), "count")
        for fn in ("validate", "port_dependence", "composite_map"):
            put(f"network.{fn}.self_ms", ms(f"network.{fn}"), "ms")
        put("geometry.compile_network.calls", per_op(self.calls["geometry.compile_network"]), "count")
        put("geometry.compile_network.self_ms", ms("geometry.compile_network"), "ms")
        put("mbqc.build_schedule.calls", per_op(self.calls["mbqc.build_schedule"]), "count")
        put("mbqc.build_schedule.self_ms", ms("mbqc.build_schedule"), "ms")
        put("mbqc.run_mbqc.self_ms", ms("mbqc.run_mbqc"), "ms")
        put("mbqc.oracle_output_state.self_ms", ms("mbqc.oracle_output_state"), "ms")
        put("mbqc.branch_survey.self_ms", ms("mbqc.branch_survey"), "ms")
        put(
            "mbqc.branch_survey.us_per_branch",
            us_per_branch("mbqc.branch_survey", "mbqc.branch_survey.branches"),
            "us",
        )
        put("coherent.exhaustive_coherent.self_ms", ms("coherent.exhaustive_coherent"), "ms")
        put(
            "coherent.exhaustive_coherent.us_per_branch",
            us_per_branch("coherent.exhaustive_coherent", "coherent.exhaustive_coherent.branches"),
            "us",
        )
        branches = (
            self.counts["mbqc.branch_survey.branches"]
            + self.counts["coherent.exhaustive_coherent.branches"]
        )
        put("sweep.branches", per_op(branches), "count")
        put("coherent.run_coherent.self_ms", ms("coherent.run_coherent"), "ms")
        for k in STATE_KERNELS:
            put(f"states.{k}.calls", per_op(self.calls[f"states.{k}"]), "count")
            put(f"states.{k}.self_ms", ms(f"states.{k}"), "ms")
        put("states.amps_touched", per_op(self.counts["states.amps_touched"]), "count")
        put(
            "states.bytes_moved_computed",
            per_op(self.counts["states.bytes_moved_computed"]),
            "B",
        )
        put("states.peak_live_qudits", self.maxima["states.peak_live_qudits"], "count")
        put("states.peak_live_amps", self.maxima["states.peak_live_amps"], "count")
        put("report.to_dict.self_ms", ms("report.to_dict"), "ms")
        put("files.dump_json.self_ms", ms("files.dump_json"), "ms")
        put("report.bytes", per_op(self.counts["report.bytes"]), "B")
        return out

    def dump(self):
        """Every traced name with calls, total and self ms, plus the work counts."""
        names = sorted(self.calls)
        return {
            "functions": {
                n: {
                    "calls": self.calls[n],
                    "total_ms": 1e3 * self.total[n],
                    "self_ms": 1e3 * self.self_time[n],
                }
                for n in names
            },
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
