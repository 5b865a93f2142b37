"""In-memory span tracing of the fraczeta layers.

Spans are recorded by replacing public functions at the module attribute
that callers look up at call time (for example ``fourier.sdot_array``,
which ``fourier.lhs_weighted_sdot`` reaches through the name it imported
from ``bernpoly``), so no file of the library changes.  Each span keeps
its name, start, end, parent, the pass it belongs to and its self time:
its duration minus the time covered by its child spans.  Calls are
strictly nested in this single-threaded program, so the covered time is
the sum of the children's durations.

Functions called hundreds of times per pass (``zeta_em``, ``zeta_deriv``,
``refine_zero``) are only counted, so that their time stays with the
layer that called them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Span fields, in the order they are stored and written.
SPAN_FIELDS = ("id", "parent", "pass", "name", "start_ns", "end_ns", "self_ns")


def _table_bytes(table) -> int:
    return sum(v.nbytes for v in vars(table).values() if hasattr(v, "nbytes"))


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # pass -> name -> value
        self.pass_id = "setup"
        self._stack: list[list] = []  # [span id, name, start_ns, child_ns]
        self._next_id = 0
        self._originals: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.pass_id][name] += value

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def close(self) -> None:
        """Close the innermost span."""
        end = time.perf_counter_ns()
        sid, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, parent, self.pass_id, name, start, end, dur - child_ns))

    def error(self, module: str, exc: BaseException) -> None:
        # An exception passes through every wrapped caller on its way out;
        # it is counted once, at the innermost layer that raised it.
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        self.count(f"{module}.errors")

    # -- installation ------------------------------------------------------

    def _wrap(self, module, attr: str, name, on_result=None, span: bool = True) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        sig = inspect.signature(fn)
        needs_args = callable(name) or on_result is not None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if needs_args else None
            label = name(bound) if callable(name) else name
            tracer.count(f"{label}.calls")
            if span:
                tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.error(label.split(".")[0], exc)
                if not span:
                    tracer.count(f"{label}.failures")
                raise
            finally:
                if span:
                    tracer.close()
            if on_result is not None:
                on_result(tracer, bound, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))

    def install(self) -> None:
        """Wrap the layer functions of the fraczeta modules."""
        from fraczeta import bernpoly, cli, explicit, fourier, zeta

        def run_identity(bound):
            return f"cli.run_identity.{bound['identity_id']}"

        def weighted(bound):
            return f"fourier.lhs_weighted_sdot.{bound['weight']}"

        def weighted_result(tr, bound, res):
            # Bytes the kernel must move per term, computed from dtypes:
            # the index (8), the weight (1 for int8 mu, else 8) and the
            # float64 term it produces (8).
            tr.count("fourier.lhs_weighted_sdot.terms", res.terms_used)
            per_term = 8 + (1 if bound["weight"] == "mu" else 8) + 8
            tr.count("fourier.lhs_weighted_sdot.bytes_computed", per_term * res.terms_used)

        def table_result(tr, bound, res):
            tr.count("cli.get_table.table_bytes", _table_bytes(res))

        def theorem1_result(tr, bound, res):
            tr.count("explicit.lhs_theorem1.terms", res.terms_used)

        def slope_result(tr, bound, res):
            tr.count("fourier.rh_slope.points", len(bound["values"]))
            tr.count("fourier.rh_slope.kept", len(res.points))

        self._wrap(cli, "get_table", "cli.get_table", table_result)
        self._wrap(cli, "get_refined_zeros", "cli.get_refined_zeros")
        self._wrap(cli, "run_identity", run_identity)
        self._wrap(cli, "emit_report", "cli.emit_report")
        self._wrap(cli, "selftest", "cli.selftest")
        self._wrap(cli, "build_sieve", "arith.build_sieve")
        self._wrap(fourier, "lhs_weighted_sdot", weighted, weighted_result)
        self._wrap(fourier, "sdot_array", "bernpoly.sdot_array")
        self._wrap(fourier, "rhs_th2_log", "fourier.rhs_th2_log")
        self._wrap(fourier, "rhs_th4_upsilon", "fourier.rhs_th4_upsilon")
        self._wrap(fourier, "rh_slope", "fourier.rh_slope", slope_result)
        self._wrap(bernpoly, "em_identity_residual", "bernpoly.em_identity_residual")
        self._wrap(explicit, "integral_ik_array", "bernpoly.integral_ik_array")
        self._wrap(explicit, "lhs_theorem1", "explicit.lhs_theorem1", theorem1_result)
        self._wrap(explicit, "rhs_theorem1", "explicit.rhs_theorem1")
        self._wrap(explicit, "residue_at", "explicit.residue_at")
        self._wrap(explicit, "zero_sum", "explicit.zero_sum")
        self._wrap(explicit, "trivial_sum", "explicit.trivial_sum")
        self._wrap(zeta, "refine_table", "zeta.refine_table")
        self._wrap(zeta, "load_zero_table", "zeta.load_zero_table")
        self._wrap(zeta, "Hk_closed", "zeta.Hk_closed")
        self._wrap(zeta, "Hk_quadrature", "zeta.Hk_quadrature")
        for attr in ("zeta_em", "zeta_deriv", "refine_zero"):
            self._wrap(zeta, attr, f"zeta.{attr}", span=False)

    def uninstall(self) -> None:
        """Put the original functions back."""
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        return {
            "span_fields": list(SPAN_FIELDS),
            "spans": [list(s) for s in self.spans],
            "counts": {p: dict(c) for p, c in self.counts.items()},
        }


def summarize(dump: dict, passes) -> dict:
    """Per-name totals over the spans of the given passes.

    Returns name -> {"calls", "self_s", "incl_s"}.
    """
    passes = set(passes)
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for _sid, _parent, pass_id, name, start, end, self_ns in dump["spans"]:
        if pass_id not in passes:
            continue
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += self_ns * 1e-9
        agg["incl_s"] += (end - start) * 1e-9
    return dict(out)


def counts_of(dump: dict, passes) -> dict:
    """Counter totals over the given passes."""
    out: dict = defaultdict(float)
    for p in passes:
        for name, v in dump["counts"].get(p, {}).items():
            out[name] += v
    return dict(out)
