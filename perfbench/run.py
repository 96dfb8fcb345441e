"""meanfieldlab benchmark: one workload per run, metrics as a JSON last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rate-small --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): rate-small, rate-large,
fock-check-coarse.  Each run writes a generated config and drives
``meanfieldlab.cli.main`` in a child process against it, pointing ``--out``
at a scratch directory under .perfbench_scratch/, and checks every
invocation's exit code and outputs.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``norm_wall_s``: median wall time of one CLI invocation (config load to
  the verdict and the written files), scaled to the nominal speed of the
  workload's reference kernel in speedref.py, which is timed around and
  during each invocation; this cancels the host's speed drift between runs.
  The raw ``wall_s`` is printed in the summary;
* ``setup_s``: median over fresh processes of importing meanfieldlab,
  parsing the config and building the workload's static operators, scaled
  the same way by the ``cache`` kernel, whose interpreter-bound work is
  most like set-up's (the raw median is printed in the summary);
* ``peak_rss_mb``: peak RSS of the process that ran the invocations.

With ``--trace 1`` invocations alternate untraced and traced, and the result
carries the per-layer metrics of tracer.py.  Failed invocations count in
``failed`` (and ``failed_frac``, printed with the summary).  The
environment (BLAS threads are held at BLAS_THREADS in every child) is
printed before the result.  To print the summary for every workload:

    for w in rate-small rate-large fock-check-coarse; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3  # fresh set-up processes timed per run, after one warm-up
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170
MEMORY_MARGIN = 1.15  # MemAvailable must exceed this multiple of a workload's peak


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def measure_setup(config_path: Path, with_fock: bool, env) -> tuple[float, float]:
    """Median set-up time over fresh processes, raw and scaled to nominal speed."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(config_path), "1" if with_fock else "0"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=True)
        setup, norm = map(float, out.stdout.strip().splitlines()[-1].split())
        raw.append(setup)
        scaled.append(norm)
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "meanfieldlab" / "cli.py").is_file():
        print(f"error: no meanfieldlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = child_env()

    available = mem_available_mb()
    if available is not None and available < MEMORY_MARGIN * workload.peak_mb:
        print(
            f"error: MemAvailable {available:.0f} MB is below {MEMORY_MARGIN} x the measured "
            f"{workload.peak_mb:.0f} MB peak of {workload.name}; not started",
            file=sys.stderr,
        )
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    scratch = ROOT / ".perfbench_scratch" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        metrics: dict[str, float] = {}
        (scratch / "config.json").write_text(json.dumps(workload.config(args.seed)))
        if not trace:
            raw_setup, metrics["setup_s"] = measure_setup(scratch / "config.json", workload.command == "fock-check", env)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload.name, str(args.seed), str(args.seconds),
             str(args.trace), str(scratch)],
            env=env, timeout=CHILD_TIMEOUT_S, check=True,
        )
        result = json.loads((scratch / "result.json").read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("environment:", json.dumps(result["environment"], sort_keys=True))
    problems = [p for p in result["problems"] if p is not None]
    for p in problems:
        print(f"output check failed: {p}", file=sys.stderr)
    attempted = len(result["problems"])
    if trace:
        metrics = dict(result["layers"])
        traced = statistics.median(result["traced_walls"])
        metrics["trace_overhead_frac"] = traced / statistics.median(result["walls"]) - 1.0
        units = LAYER_METRICS
        if not report_trace(result, traced, metrics["trace_overhead_frac"]):
            return 1
    else:
        metrics["norm_wall_s"] = statistics.median(result["norm_walls"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END

    names = declared_metrics(trace)
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 1
    walls = sorted(result["walls"])
    print(f"{workload.name} seed {args.seed}: {len(walls)} untraced invocations, wall min {walls[0]:.4f} s, "
          f"median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    if not trace:
        bursts = sorted(result["bursts"])
        print(f"  {workload.reference} reference kernel: {len(bursts)} bursts, min {bursts[0]:.5f} s, "
              f"median {statistics.median(bursts):.5f} s, max {bursts[-1]:.5f} s")
        print(f"  {'wall_s (raw)':40s} {statistics.median(walls):.6g} s")
        print(f"  {'setup_s (raw)':40s} {raw_setup:.6g} s")
    for name in names:
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {len(problems) / attempted:.6g} frac ({len(problems)} of {attempted})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


def report_trace(result: dict, traced_wall: float, overhead: float) -> bool:
    """Print where the traced time went; check that self times add up to wall_s."""
    for module, own in sorted(result["modules"].items(), key=lambda kv: -kv[1]):
        print(f"  layer {module:12s} self {own:10.4f} s  {own / traced_wall:6.1%} of traced wall_s")
    tolerance = max(abs(overhead), 0.01)
    for total, wall in zip(result["self_sums"], result["traced_walls"]):
        if abs(total - wall) > tolerance * wall:
            print(f"error: self times sum to {total:.6f} s, traced wall_s is {wall:.6f} s", file=sys.stderr)
            return False
    return True


if __name__ == "__main__":
    sys.exit(main())
