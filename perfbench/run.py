"""Benchmark of the fraczeta verifier.

    python3 perfbench/run.py --workload verify-1e6 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
src/.  Every process it starts is single-threaded (BLAS and OpenMP pools
pinned to 1) and points FRACZETA_CACHE_DIR at a directory under
.perfbench_runs/ that is deleted at the end, so the user's sieve cache
is never read or written.

One run, for one workload:

1. The workload process sets up from an empty cache.  Then, for
   --seconds, one client in a closed loop asks it for one pass after
   another; every pass runs the correctness gate (see workloads.py).
   pass_s is the median pass, pass_s_tail the highest pass with at least
   ten passes above it (the slowest pass when there are ten or fewer),
   peak_rss_mb the workload process's ru_maxrss.
2. Between passes, about PROBE_SHARE of the time, the run makes set-up
   probes: a fresh process with an empty cache directory is timed from
   its start until the workload's tables and zeros are ready (setup_s),
   then two more that reuse the cache it left (warm_setup_s).  Spreading
   the probes over the same stretch of time as the passes keeps a slow
   spell of the machine from falling on the probes alone.

With --trace 1 one cold and two warm probes are traced (see tracer.py)
before the workload starts, two more fresh processes report the peak
memory of build_sieve at N = 10^6 and 10^7, and the workload process
alternates untraced and traced passes for --seconds (at least four
passes), so that traced minus untraced pass_s is the tracing overhead;
only the per-layer metrics are printed, and the spans go to
.perfbench_runs/trace-<workload>-seed<seed>.json.

The last line of output is one JSON object: correct, attempted, failed
(checks of the correctness gate) and metrics, whose names and units must
equal those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import counts_of, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"

TIME_LIMIT_S = 170.0    # from process start: a run ends within three minutes
START = time.monotonic()
PROBE_SHARE = 0.35      # share of an untraced run spent on set-up probes
MIN_PROBE_UNITS = 3     # an untraced run makes at least this many cold probes
WARM_PER_COLD = 2       # warm probes that reuse the cache of each cold one
SIEVE_PROBES = {"1e6": 10**6, "1e7": 10**7}
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
IDENTITIES = ("th1", "th2-mu", "th2-log", "th4", "em-check", "rh-slope")
MODULES = ("arith", "bernpoly", "zeta", "explicit", "fourier", "cli")
WORK_COUNT_TOL = 1e-3


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env(cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FRACZETA_CACHE_DIR"}
    env.update(THREAD_PINS)
    env["FRACZETA_CACHE_DIR"] = str(cache)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], cache: Path, deadline: float, stdin=None):
    """Start worker.py, with a timer that kills it at the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, env=_child_env(cache), stdin=stdin, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    return proc, timer


def _reap(proc, timer, args: list[str], deadline: float) -> None:
    """Stop the process if it still runs and wait for it; then fail unless
    it ended by itself with code 0 before the deadline."""
    timer.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()
    if time.monotonic() >= deadline:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f}s reached during {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exited with code {proc.returncode}")


def _child(args: list[str], cache: Path, deadline: float, timed: bool = False):
    """Run worker.py to completion; returns (seconds from start to its ready
    line, or None, and its last JSON line)."""
    t0 = time.perf_counter()
    proc, timer = _spawn(args, cache, deadline)
    out = ""
    try:
        ready_s = None
        if timed:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            if json.loads(line or "null") != {"ready": True}:
                raise BenchError(f"{' '.join(args)}: set-up did not complete")
        out = proc.stdout.read()
        proc.wait()
    finally:
        _reap(proc, timer, args, deadline)
    return ready_s, json.loads(out.strip().splitlines()[-1])


class WorkloadProcess:
    """The workload process: it sets up once, then runs one pass for each
    request, so that the parent can run set-up probes between passes."""

    def __init__(self, args: list[str], cache: Path, deadline: float):
        self.args, self.deadline = args, deadline
        self.proc, self.timer = _spawn(args, cache, deadline, stdin=subprocess.PIPE)
        try:
            if self._read() != {"ready": True}:
                raise BenchError(f"{' '.join(args)}: set-up did not complete")
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{' '.join(self.args)}: ended before its result")
        return json.loads(line)

    def _send(self, command: str) -> None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"{' '.join(self.args)}: {exc}") from exc

    def run_pass(self) -> float:
        self._send("pass")
        return self._read()["pass_s"]

    def finish(self) -> dict:
        """Ask for the result and wait for the process to end."""
        self._send("end")
        out = self.proc.stdout.read()
        self.proc.wait()
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        _reap(self.proc, self.timer, self.args, self.deadline)


def measure(args, tmp: Path, deadline: float) -> dict:
    common = ["--workload", args.workload, "--trace", str(args.trace)]
    cold, warm = [], []

    def probe_unit() -> None:
        cache = tmp / f"cache-{len(cold)}"
        cold.append(_child(["setup", *common], cache, deadline, timed=True))
        for _ in range(WARM_PER_COLD):
            warm.append(_child(["setup", *common], cache, deadline, timed=True))
        shutil.rmtree(cache, ignore_errors=True)

    sieve = {}
    if args.trace:
        probe_unit()
        for label, n in SIEVE_PROBES.items():
            sieve[label] = _child(["sieve", "--n", str(n)], tmp / "sieve", deadline)[1]

    workdir = tmp / "work"
    workdir.mkdir()
    proc = WorkloadProcess(
        ["workload", *common, "--seed", str(args.seed), "--workdir", str(workdir)],
        tmp / "work-cache", deadline,
    )
    try:
        # One client in a closed loop.  An untraced run puts set-up probes
        # between the passes, PROBE_SHARE of the time, so that both sample
        # the same stretch of time; a traced run made its probes above.
        min_units, min_passes = (0, 4) if args.trace else (MIN_PROBE_UNITS, 1)
        spent = {"probe": 0.0, "pass": 0.0}
        last = {"probe": 0.0, "pass": 0.0}
        passes = 0
        end = time.monotonic() + args.seconds
        while True:
            due = not args.trace and spent["probe"] <= PROBE_SHARE * (spent["probe"] + spent["pass"])
            kind = "probe" if due else "pass"
            if time.monotonic() + last[kind] > end:
                if len(cold) < min_units:
                    kind = "probe"
                elif passes < min_passes:
                    kind = "pass"
                else:
                    break
            t0 = time.monotonic()
            if kind == "probe":
                probe_unit()
            else:
                proc.run_pass()
                passes += 1
            last[kind] = time.monotonic() - t0
            spent[kind] += last[kind]
        work = proc.finish()
    finally:
        proc.close()
    return {"cold": cold, "warm": warm, "sieve": sieve, "work": work}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, str]:
    """The highest sample with at least ten samples above it, labelled with
    its percentile; the maximum when there are ten samples or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n} (fewer than 11 samples)"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n} (10 above)"


def end_to_end(res: dict) -> tuple[dict, dict]:
    passes = res["work"]["untraced_s"]
    cold = [r[0] for r in res["cold"]]
    warm = [r[0] for r in res["warm"]]
    tail_s, tail_note = tail(passes)
    metrics = {
        "setup_s": (statistics.median(cold), "s"),
        "warm_setup_s": (statistics.median(warm), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "pass_s_tail": (tail_s, "s"),
        "peak_rss_mb": (res["work"]["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(cold)} fresh processes, empty cache: "
                   + ", ".join(f"{v:.3f}" for v in cold),
        "warm_setup_s": f"median of {len(warm)} fresh processes, warm disk cache: "
                        + ", ".join(f"{v:.3f}" for v in warm),
        "pass_s": f"median of {len(passes)} passes; median CPU time "
                  f"{statistics.median(res['work']['untraced_cpu_s']):.6g} s",
        "pass_s_tail": tail_note,
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def _work_counts(dump: dict, pass_id: str) -> dict:
    c = dump["counts"].get(pass_id, {})
    return {
        "terms": c.get("fourier.lhs_weighted_sdot.terms", 0) + c.get("explicit.lhs_theorem1.terms", 0),
        "zeros_refined": c.get("zeta.refine_zero.calls", 0) - c.get("zeta.refine_zero.failures", 0),
        "zeta_em_calls": c.get("zeta.zeta_em.calls", 0),
    }


def work_rel_diff(dump: dict, passes: list[str]) -> tuple[float, dict, dict]:
    """Largest relative difference in work between the first traced pass
    (the run's seed) and the second (the next seed)."""
    a, b = _work_counts(dump, passes[0]), _work_counts(dump, passes[1])
    diff = max((abs(a[k] - b[k]) / max(a[k], b[k]) if max(a[k], b[k]) else 0.0) for k in a)
    return diff, a, b


def per_layer(res: dict) -> tuple[dict, dict, dict]:
    work = res["work"]
    dump = work["trace"]
    passes = work["traced_passes"]
    n = len(passes)
    layers = summarize(dump, passes)
    counts = counts_of(dump, passes)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / n

    def incl_s(name):
        return layers.get(name, {}).get("incl_s", 0.0) / n

    def count(name):
        return counts.get(name, 0.0) / n

    # A traced run makes one cold set-up probe and its warm ones.
    (_, cold), (_, warm) = res["cold"][0], res["warm"][0]
    probes = [p for _, p in res["cold"] + res["warm"]]

    def setup_s(probe, name):
        return summarize(probe["trace"], ["setup"]).get(name, {}).get("incl_s", 0.0)

    m: dict = {}
    notes: dict = {}
    m["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    m["cli.get_table.build_s"] = (setup_s(cold, "cli.get_table"), "s")
    m["cli.get_table.load_s"] = (setup_s(warm, "cli.get_table"), "s")
    table_bytes = cold["trace"]["counts"].get("setup", {}).get("cli.get_table.table_bytes", 0.0)
    m["cli.get_table.file_mb"] = (table_bytes / 1e6, "MB")
    m["cli.get_refined_zeros_s"] = (setup_s(cold, "cli.get_refined_zeros"), "s")
    m["arith.build_sieve_s"] = (setup_s(cold, "arith.build_sieve"), "s")
    for label, probe in res["sieve"].items():
        m[f"arith.build_sieve.peak_rss_mb_{label}"] = (probe["peak_rss_mb"], "MB")
        notes[f"arith.build_sieve.peak_rss_mb_{label}"] = (
            f"fresh process, {probe['base_rss_mb']:.1f} MB before the build")

    for ident in IDENTITIES:
        m[f"cli.run_identity.{ident}_s"] = (incl_s(f"cli.run_identity.{ident}"), "s")
    m["cli.emit_report_s"] = (incl_s("cli.emit_report"), "s")
    m["cli.selftest_s"] = (incl_s("cli.selftest"), "s")

    kernel_s = 0.0
    for w in ("lambda", "mu", "mubar"):
        m[f"fourier.lhs_weighted_sdot.{w}_s"] = (self_s(f"fourier.lhs_weighted_sdot.{w}"), "s")
        kernel_s += incl_s(f"fourier.lhs_weighted_sdot.{w}")
    terms = count("fourier.lhs_weighted_sdot.terms")
    m["fourier.lhs_weighted_sdot.terms"] = (terms, "count")
    m["fourier.lhs_weighted_sdot.terms_per_s"] = (terms / kernel_s if kernel_s else 0.0, "1/s")
    m["fourier.lhs_weighted_sdot.bytes_computed"] = (count("fourier.lhs_weighted_sdot.bytes_computed"), "B")
    m["fourier.rhs_th2_log_s"] = (self_s("fourier.rhs_th2_log"), "s")
    m["fourier.rhs_th4_upsilon_s"] = (self_s("fourier.rhs_th4_upsilon"), "s")
    points = counts.get("fourier.rh_slope.points", 0.0)
    m["fourier.rh_slope.kept_ratio"] = (counts.get("fourier.rh_slope.kept", 0.0) / points if points else 0.0, "ratio")

    for name in ("sdot_array", "integral_ik_array", "em_identity_residual"):
        m[f"bernpoly.{name}_s"] = (self_s(f"bernpoly.{name}"), "s")
    for name in ("rhs_theorem1", "residue_at", "zero_sum"):
        m[f"explicit.{name}_s"] = (self_s(f"explicit.{name}"), "s")
        m[f"explicit.{name}.calls"] = (count(f"explicit.{name}.calls"), "count")
    m["explicit.trivial_sum_s"] = (self_s("explicit.trivial_sum"), "s")
    m["explicit.lhs_theorem1_s"] = (self_s("explicit.lhs_theorem1"), "s")

    for name in ("refine_table", "load_zero_table", "Hk_closed", "Hk_quadrature"):
        m[f"zeta.{name}_s"] = (self_s(f"zeta.{name}"), "s")
    m["zeta.zeta_em.calls"] = (count("zeta.zeta_em.calls"), "count")
    m["zeta.zeta_deriv.calls"] = (count("zeta.zeta_deriv.calls"), "count")
    m["zeta.refine_zero.failures"] = (count("zeta.refine_zero.failures"), "count")

    # Exceptions raised in any traced process of the run, per layer.
    dumps = [p["trace"] for p in probes] + [dump]
    for mod in MODULES:
        total = sum(v.get(f"{mod}.errors", 0.0) for d in dumps for v in d["counts"].values())
        m[f"{mod}.errors"] = (total, "count")

    traced = statistics.median(work["traced_s"])
    root_s = incl_s("bench.pass") * n
    layer_s = sum(v["self_s"] for k, v in layers.items() if k != "bench.pass")
    m["trace.pass_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - statistics.median(work["untraced_s"]), "s")
    m["trace.layer_share"] = (layer_s / root_s, "ratio")
    diff, a, b = work_rel_diff(dump, passes)
    m["selfcheck.work_rel_diff"] = (diff, "ratio")

    notes.update({
        "trace.pass_s": f"median of {n} traced passes, alternating with "
                        f"{len(work['untraced_s'])} untraced ones",
        "trace.layer_share": "sum of layer self times over traced pass time",
        "selfcheck.work_rel_diff": f"work per pass, seed {a} vs next seed {b}",
        "fourier.lhs_weighted_sdot.bytes_computed": "computed from dtypes: index, weight, term",
        "cli.get_table.file_mb": "computed from the table's array sizes",
    })
    if diff > WORK_COUNT_TOL:
        raise BenchError(f"work per pass depends on the seed: {a} vs {b}")
    return m, notes, layers


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, work: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **work["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "loadavg": os.getloadavg(),
    }


def check_names(metrics: dict, spec: dict, section: str) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares,
    each with its declared unit."""
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: unit for k, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise BenchError(f"{section} mismatch with BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit differs {units}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not (ROOT / "src" / "fraczeta" / "cli.py").is_file():
            raise BenchError(f"no fraczeta sources under {ROOT / 'src'}; run from a source checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        # Compile once here, so that no probe's import time includes it.
        compileall.compile_dir(ROOT / "src", quiet=1)
        compileall.compile_dir(HERE, quiet=1)

        deadline = START + TIME_LIMIT_S
        OUT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            res = measure(args, tmp, deadline)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

        work = res["work"]
        prov = provenance(args, work)
        if args.trace:
            metrics, notes, layers = per_layer(res)
            check_names(metrics, spec, "per_layer")
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            processes = [{"role": f"cold-{i}", "trace": p["trace"]} for i, (_, p) in enumerate(res["cold"])]
            processes += [{"role": f"warm-{i}", "trace": p["trace"]} for i, (_, p) in enumerate(res["warm"])]
            processes.append({"role": "workload", "trace": work["trace"]})
            trace_path.write_text(json.dumps({"provenance": prov, "processes": processes}))
        else:
            metrics, notes = end_to_end(res)
            check_names(metrics, spec, "end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = work["attempted"], work["failed"]
    print(f"# provenance {json.dumps(prov)}")
    for msg in work["failures"]:
        print(f"# FAILED {msg}")
    if args.trace:
        total = sum(v["self_s"] for v in layers.values())
        print(f"# self time per traced pass by span ({len(work['traced_passes'])} passes)")
        for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            share = v["self_s"] / total if total else 0.0
            print(f"#   {name:40s} {v['self_s'] / len(work['traced_passes']):10.5f} s "
                  f"{100 * share:5.1f}%  calls {v['calls']}")
        print(f"#   trace written to {trace_path.relative_to(ROOT)}")
    print(f"# {'metric':44s} {'value':>14s} unit   note")
    for name, (value, unit) in metrics.items():
        print(f"# {name:44s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"# {'fail_ratio':44s} {failed / attempted:14.6g} ratio  "
          f"{failed} of {attempted} checks failed or raised")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
