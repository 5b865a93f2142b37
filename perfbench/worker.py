"""One child process of the benchmark.

Modes:
  setup     import the library and run one workload's set-up, then print
            {"ready": true} at once, so the parent can time the process
            from its start to that line
  sieve     build one sieve table and report the process's peak memory
  workload  set up and print {"ready": true}; then run one pass for each
            line "pass" read on stdin, printing its wall time, until "end"
            or the end of input.  With --trace 1 every other pass is traced.

Each mode prints JSON lines on stdout; the last line is the result.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _pass(wl, gate, workdir, seed, tracer, pass_id):
    """Run one pass on the inputs of `seed`, recorded by `tracer` unless it
    is None; returns its wall time and CPU time."""
    inp = wl.inputs(seed)
    if tracer is not None:
        tracer.install()
        tracer.pass_id = pass_id
        tracer.open("bench.pass")
    t0, c0 = time.perf_counter(), time.process_time()
    wl.run_pass(inp, gate, workdir)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.close()
        tracer.uninstall()
    return wall, cpu


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "sieve", "workload"))
    ap.add_argument("--workload")
    ap.add_argument("--n", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import fraczeta.cli  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    if args.mode == "sieve":
        from fraczeta import arith

        base = _maxrss_mb()
        arith.build_sieve(args.n)
        _emit({"n": args.n, "peak_rss_mb": _maxrss_mb(), "base_rss_mb": base})
        return 0

    from workloads import WORKLOADS, Gate

    wl = WORKLOADS[args.workload]()
    if args.mode == "setup":
        if tracer is not None:
            tracer.install()
        wl.setup()
        _emit({"ready": True})
        _emit({"import_s": import_s, "trace": tracer.dump() if tracer else None})
        return 0

    import numpy
    import scipy

    wl.setup()
    gate = Gate()
    _emit({"ready": True})
    times: list[float] = []
    cpu: list[float] = []
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        i = len(times)
        # Traced runs alternate untraced and traced passes, so that drift in
        # machine speed affects both alike; the traced ones alternate the
        # seed and its successor.
        if tracer is None:
            seed, tr = args.seed, None
        else:
            seed, tr = args.seed + (i // 2) % 2, (tracer if i % 2 else None)
        wall, c = _pass(wl, gate, args.workdir, seed, tr, f"pass-{i}")
        times.append(wall)
        cpu.append(c)
        _emit({"pass_s": wall})
    if tracer is None:
        untraced, untraced_cpu, traced = times, cpu, []
    else:
        untraced, untraced_cpu, traced = times[::2], cpu[::2], times[1::2]
    maxrss = _maxrss_mb()
    _emit({
        "untraced_s": untraced,
        "untraced_cpu_s": untraced_cpu,
        "traced_s": traced,
        "traced_passes": [f"pass-{2 * i + 1}" for i in range(len(traced))],
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "peak_rss_mb": maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "trace": tracer.dump() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
