#!/usr/bin/env python3
"""gkpforge benchmark.

One workload per process, closed loop, one client:

    python3 gkpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last stdout line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics from a traced run with `--trace 1`.
The line before it holds the run's details and environment.

    python3 gkpbench/run.py --workload all [--seed N] [--smoke]

runs every workload untraced and traced and prints every metric by name
with its unit. `--smoke` shrinks the campaigns for the benchmark's own
tests. See gkpbench/README.md for the workloads and metrics.

End-to-end times are scaled by the reference kernel (reference.py),
timed between stretches of the workload, so that they read the same
however the shared host's speed drifts; the raw wall times are in the
details line.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("conditioning", "injection", "cli_mix", "angular_tables")

# the shipped specs' seed (mo91-sampling-v1, acceptance criterion 07)
DEFAULT_SEED = 20250809
# single client: numpy's BLAS gets one thread, so runs do not contend
BLAS_THREADS = 1
PINNED_TIMESTAMP = "2025-08-09T00:00:00+00:00"
SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 3
# workload time between two timings of the reference kernel
SEGMENT_S = 0.25


def _run_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10


def _subprocess_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def _launch(argv: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_subprocess_env(), check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    return time.perf_counter() - start, proc.stderr


def measure_setup(setup_code: str, launches: int) -> tuple[float, float]:
    """Median time of fresh interpreters that import gkpforge.cli and load
    the workload's bundled resources, in s: scaled by the reference
    kernel timed before and after each launch, and raw. The first launch
    warms the file cache and is not counted."""
    import reference

    argv = ["-c", "import gkpforge.cli\n" + setup_code]
    _launch(argv)
    refs = [reference.time_kernel()]
    times = []
    for _ in range(launches):
        times.append(_launch(argv)[0])
        refs.append(reference.time_kernel())
    scaled = [t * reference.NOMINAL_MS / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times)


def measure_imports(launches: int) -> tuple[float, float]:
    """Median cumulative import time of numpy and of gkpforge (without
    numpy), in ms, from `python -X importtime`."""
    numpy_ms, gkpforge_ms = [], []
    for _ in range(launches):
        _, log = _launch(["-X", "importtime", "-c", "import numpy; import gkpforge.cli"])
        totals = {"numpy": 0.0, "gkpforge": 0.0}
        for line in log.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, package = line.split("|")
            # top-level imports are indented by exactly one space
            if package.startswith("  ") or not cumulative.strip().isdigit():
                continue
            root = package.strip().split(".")[0]
            if root in totals:
                totals[root] += int(cumulative) / 1e3
        numpy_ms.append(totals["numpy"])
        gkpforge_ms.append(totals["gkpforge"])
    return statistics.median(numpy_ms), statistics.median(gkpforge_ms)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_cap": min(BLAS_THREADS, nproc),
        "platform": platform.platform(),
    }


class Pass:
    """Outcome of one timed pass over whole cycles."""

    def __init__(self):
        # flat arrays, so that memory does not grow with the operation count
        self.durations = array.array("d")  # wall time of each operation, s
        self.scaled = array.array("d")     # the same, at the reference kernel's nominal speed
        self.reference_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.units = 0          # work units of the operations that succeeded
        self.layer_units = 0    # per-layer normalisation units of every operation
        self.draws = 0
        self.next_cycle = 0

    @property
    def throughput(self) -> float:
        return self.units / sum(self.scaled)

    @property
    def raw_throughput(self) -> float:
        return self.units / sum(self.durations)


def measure(workload, seconds: float, first_cycle: int, tracer=None) -> Pass:
    """Run whole cycles until `seconds` have passed. Each operation is timed
    alone; generation and output checks happen outside the timed calls.

    The reference kernel is timed before the first cycle and after every
    SEGMENT_S of cycles; each operation's scaled time is its wall time
    times NOMINAL_MS over the mean of the two kernel timings around its
    stretch of cycles."""
    import reference

    result = Pass()
    k = first_cycle
    started = time.perf_counter()
    refs = [reference.time_kernel()]
    segment_start, segment_first = time.perf_counter(), 0
    while True:
        ops = workload.cycle(k)
        k += 1
        outputs, raised = [], {}
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = result.attempted + i
            t0 = time.perf_counter()
            try:
                output = workload.execute(op)
            except Exception as exc:  # counted as a failed operation
                output = None
                raised[i] = f"{op.kind} {op.args}: uncaught {type(exc).__name__}: {exc}"
            result.durations.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op_id = -1
            outputs.append(output)
        errors = {**workload.check_cycle(ops, outputs), **raised}
        for i, op in enumerate(ops):
            result.layer_units += workload.layer_units(op)
            if i in errors:
                result.failures.append(errors[i])
            else:
                result.units += op.units
                result.draws += op.draws
        result.attempted += len(ops)
        done = time.perf_counter() - started >= seconds
        if done or time.perf_counter() - segment_start >= SEGMENT_S:
            refs.append(reference.time_kernel())
            scale = reference.NOMINAL_MS / ((refs[-2] + refs[-1]) / 2)
            result.scaled.extend(d * scale for d in result.durations[segment_first:])
            segment_start, segment_first = time.perf_counter(), len(result.durations)
        if done:
            break
    result.reference_ms = refs
    result.next_cycle = k
    return result


def run_workload(args) -> int:
    os.environ.update({var: str(BLAS_THREADS) for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    os.environ["GKPFORGE_TIMESTAMP"] = PINNED_TIMESTAMP
    # one CPU for the workload, the reference kernel and the set-up
    # launches alike, so the kernel times the CPU the work runs on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import reference
    import workloads

    load_before = os.getloadavg()
    env = environment()
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        workload = cls(args.seed, args.smoke, tmp)
        for op in workload.cycle(-1):
            try:
                workload.execute(op)
            except Exception:  # the timed operations record any such failure
                pass
        reference.kernel()
        metrics: dict[str, tuple[float, str]] = {}
        details: dict = {}
        if args.trace == 0:
            launches = 2 if args.smoke else SETUP_LAUNCHES
            setup_s, raw_setup_s = measure_setup(cls.setup_code, launches)
            run = measure(workload, args.seconds, 0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            scaled_ms = np.array(run.scaled) * 1e3
            raw_ms = np.array(run.durations) * 1e3
            metrics = {
                "setup_s": (setup_s, "s"),
                "throughput_per_s": (run.throughput, "1/s"),
                "op_ms_p50": (float(np.percentile(scaled_ms, 50)), "ms"),
                "op_ms_p90": (float(np.percentile(scaled_ms, 90)), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            details["setup_launches"] = launches
            details["op_samples"] = len(run.durations)
            details["op_samples_beyond_p90"] = int(np.sum(scaled_ms > metrics["op_ms_p90"][0]))
            details["raw"] = {
                "setup_s": raw_setup_s,
                "throughput_per_s": run.raw_throughput,
                "op_ms_p50": float(np.percentile(raw_ms, 50)),
                "op_ms_p90": float(np.percentile(raw_ms, 90)),
            }
            details["reference_kernel_ms"] = {
                "timings": [round(t, 2) for t in run.reference_ms],
                "median": statistics.median(run.reference_ms),
            }
            passes = [run]
        else:
            from spans import Tracer, per_layer_metrics

            untraced = measure(workload, args.seconds / 2, 0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, untraced.next_cycle, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}.json")
            extra = {"draws_reported": traced.draws, "trials": traced.units if cls.unit == "trials" else 0}
            metrics = per_layer_metrics(tracer, traced.layer_units, extra)
            numpy_ms, gkpforge_ms = measure_imports(1 if args.smoke else IMPORTTIME_LAUNCHES)
            metrics["import.numpy_ms"] = (numpy_ms, "ms")
            metrics["import.gkpforge_ms"] = (gkpforge_ms, "ms")
            metrics["trace.overhead_pct"] = ((untraced.throughput / traced.throughput - 1.0) * 100.0, "%")
            details["traced_ops"] = traced.attempted
            details["traced_layer_units"] = traced.layer_units
            details["spans"] = len(tracer.spans)
            passes = [untraced, traced]
        attempted = sum(p.attempted for p in passes)
        failures = [f for p in passes for f in p.failures]
        failures += workload.final_check()
        probe = workloads.defect_probe()
        if args.trace == 1:
            metrics["cli.defect_probe.failed"] = (sum(v != "ok" for v in probe.values()), "count")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "work_unit": cls.unit,
        "work_units": sum(p.units for p in passes),
        "failures": failures[:20],
        "defect_probe": probe,
        "environment": env,
        "load_avg_before": load_before,
        "load_avg_after": os.getloadavg(),
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def report_all(args) -> int:
    """Every metric of every workload by name, untraced and traced."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [__file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(f"# {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"{name:<16}{metric:<48}{entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small campaigns, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else _run_seconds()
    if not (SRC / "gkpforge" / "__init__.py").is_file():
        print(f"gkpforge sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return report_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
