"""voiceanalogy benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload train --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. `--trace 0` measures the end-to-end metrics; `--trace 1` traces
every other loop iteration and reports per-layer metrics and the tracing
overhead. `--workload all` runs every workload, each in its own process.
The last line of the output is one JSON object; the metric names and
units come from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train", "convert", "data-eval")


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# BLAS threads are pinned before numpy is first imported. One thread: on a
# shared 2-core machine a second OpenBLAS thread spin-waits on the other
# core and made the data-eval and convert timings slower and more variable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_head():
    """HEAD commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "git_head": git_head(), "seed": seed}


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        code = code or done.returncode
    return code


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "voiceanalogy", "__init__.py")):
        print(f"error: no voiceanalogy sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload == "all":
        return run_all(args)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS
    from tracer import Tracer, layer_metrics

    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        setup_s = wl.set_up()
        metrics = {"setup_s": statistics.median(setup_s)}
        if args.trace:
            tracer = Tracer()
            plain, traced = wl.measure(args.seconds, tracer)
            metrics.update(layer_metrics(tracer, len(traced)))
            metrics["trace_overhead_frac"] = (statistics.median(traced)
                                              / statistics.median(plain) - 1)
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans)
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
        else:
            op_s, _ = wl.measure(args.seconds)
            metrics.update({
                "op_ms_p50": 1000.0 * statistics.median(op_s),
                "ops_per_s": len(op_s) / wl.busy_s,
            })
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(args.seed)))
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_s)}")
    if not args.trace:
        for name, (value, unit, n) in wl.summary().items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:28s} {shown:>14s} {unit:8s}" + (f" n={n}" if n else ""))
    for problem in wl.problems[:10]:
        print(f"failed: {problem}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in result.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": wl.failed == 0 and wl.attempted > 0,
                      "attempted": wl.attempted, "failed": wl.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
