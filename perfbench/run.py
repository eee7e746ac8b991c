"""Benchmark of the deltader command line, one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --ladder

A run writes the workload's inputs under ``perfbench/work/`` from the seed,
then feeds its jobs to ``deltader.cli.main`` in this process, one after the
other (a closed loop with one client and no extra threads), pass after pass
while another pass fits in ``--seconds``.  Every answer is checked by the
gate after timing.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` untraced passes and passes under the layer trace
alternate, and the per-layer metrics are reported.  The last line of stdout is
the JSON result.  ``--ladder`` prints the baseline ladder instead: one row
per built-in input with its size and the time of each stage.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import gate, tracer, workloads  # noqa: E402

# setup_s is the median of this many fresh imports, after one that may compile bytecode
SETUP_IMPORTS = 7
_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import deltader.cli; print(time.perf_counter() - t)"
)


def load_cli():
    """Import the package from this checkout's ``src``, and only from there."""
    if not (SRC / "deltader" / "cli.py").is_file():
        raise SystemExit(f"error: no deltader sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltader.cli

    if Path(deltader.cli.__file__).resolve().parent != (SRC / "deltader").resolve():
        raise SystemExit(f"error: deltader was imported from {deltader.cli.__file__}")
    return deltader.cli


def setup_seconds() -> float:
    """Median seconds to import the package in a fresh interpreter."""
    times = []
    for _ in range(SETUP_IMPORTS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def run_pass(cli, jobs, trace=None) -> dict:
    """Run every job once; outputs are (exit code, stdout, stderr) triples."""
    outputs, seconds = [], []
    wall, cpu = time.perf_counter(), time.process_time()
    for t, job in enumerate(jobs):
        if trace is not None:
            trace.job = t
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(job["argv"]))
            except Exception:  # a crash is a failed job, not a failed benchmark
                rc = "uncaught exception"
                err.write(traceback.format_exc())
        seconds.append(time.perf_counter() - start)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return {
        "wall_s": time.perf_counter() - wall,
        "cpu_s": time.process_time() - cpu,
        "job_max_s": max(seconds),
        "outputs": outputs,
    }


def timed_passes(cli, jobs, seconds) -> list[dict]:
    """Passes while the longest one so far still fits in ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs))
        longest = max(p["wall_s"] for p in passes)
        if time.perf_counter() - start + longest > seconds:
            return passes


def paired_passes(cli, jobs, seconds, trace) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes in pairs while a pair still fits in ``seconds``.

    The order inside a pair alternates, so that the first pass of the
    process, which runs cold, does not bias the trace overhead.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(run_pass(cli, jobs))
                continue
            first = len(trace.spans)
            with trace:
                traced.append(run_pass(cli, jobs, trace))
            traced[-1]["layers"] = tracer.layer_metrics(trace.spans, first)
        longest = max(a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced))
        if time.perf_counter() - start + longest > seconds:
            return plain, traced


def failures(jobs, passes, structures) -> list[str]:
    """Gate the first pass; every later pass must repeat its output exactly."""
    reasons = []
    first = passes[0]["outputs"]
    for t, job in enumerate(jobs):
        rc, out, err = first[t]
        reason = gate.check(job, rc, out, structures)
        if reason is not None:
            reasons.append(f"{' '.join(job['argv'])}: {reason} {err.strip()}")
    for p in passes[1:]:
        for t, job in enumerate(jobs):
            if p["outputs"][t] != first[t]:
                reasons.append(f"{' '.join(job['argv'])}: output differs from the first pass")
    return reasons


def median(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def environment() -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "nproc": os.cpu_count(),
    }


def measure(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = load_cli()
    setup = None if args.trace else setup_seconds()
    work = ROOT / "perfbench" / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.generate(args.workload, args.seed, work)
    structures = gate.load_structures(jobs, work)

    if args.trace:
        trace = tracer.Tracer()
        plain, traced = paired_passes(cli, jobs, args.seconds, trace)
        passes = plain + traced
        trace.write(work / "spans.jsonl")
        for name in trace.missing:
            print(f"trace: deltader.{name} is gone; its layer reads 0")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = tracer.summarize([p["layers"] for p in traced], names)
        metrics["cli.out_bytes"] = sum(len(out.encode()) for _, out, _ in plain[0]["outputs"])
        metrics["trace.overhead_ratio"] = median(traced, "wall_s") / median(plain, "wall_s")
    else:
        passes = timed_passes(cli, jobs, args.seconds)
        metrics = {key: median(passes, key) for key in ("wall_s", "cpu_s", "job_max_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup

    reasons = failures(jobs, passes, structures)
    for reason in reasons:
        print("FAIL", reason)
    attempted = len(jobs) * len(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes")
    print("pass wall_s", [round(p["wall_s"], 4) for p in passes])
    print("environment", json.dumps(environment(), sort_keys=True))
    print(f"fail_ratio {len(reasons) / attempted}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        print(m["name"], metrics[m["name"]], m["unit"])
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


LADDER = (
    ("sl2", "V(8)"),
    ("sl3", "adjoint"),
    ("sl4", "natural"),
    ("sl4", "adjoint"),
    ("sl5", "natural"),
    workloads.descriptors(workloads.SL2_TENSOR),
)


def ladder() -> None:
    """Print size and per-stage seconds of each built-in input in LADDER."""
    cli = load_cli()
    from deltader import delta_solver

    print("| input | cols x rows | build+validate | kernel_at(d=1) (eliminate / re-verify) "
          "| scan |")
    print("| --- | --- | --- | --- | --- |")
    with tracer.Tracer() as trace:
        for algebra_text, module_text in LADDER:
            start = time.perf_counter()
            algebra, parts = cli.parse_algebra_descriptor(algebra_text)
            module, _ = cli.parse_module_descriptor(module_text, algebra, parts)
            build = time.perf_counter() - start
            system = delta_solver.assemble_system(algebra, module)
            first = len(trace.spans)
            delta_solver.kernel_at(system, 1)
            _, start, end, *_ = trace.spans[first]
            total = end - start
            layers = tracer.layer_metrics(trace.spans, first)
            verify = layers.get("delta_solver.reverify.self_s", 0.0)
            start = time.perf_counter()
            delta_solver.scan(algebra, module)
            scan = time.perf_counter() - start
            print(
                f"| {algebra_text}, {module_text} | {system.cols} x {system.rows} | {build:.3f} s "
                f"| {total:.3f} s ({total - verify:.3f} / {verify:.3f}) | {scan:.3f} s |",
                flush=True,
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true", help="print the baseline ladder and exit")
    args = parser.parse_args(argv)
    if args.ladder:
        ladder()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
