"""Runs one workload's CLI invocations in this process and writes a JSON result.

Usage (started by run.py, with PYTHONPATH pointing at the checkout's src):

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <scratch dir>

The scratch directory holds the generated config.json, which is all the
program receives; result.json is written next to it.

Invocations repeat while the next one is expected to end within ``seconds``
(at least one runs).  With trace 0 the workload's reference kernel of
speedref.py is timed around and during every invocation, and each wall time
(without the kernel's bursts) is also reported scaled to the kernel's
nominal speed.  With trace 1 invocations alternate untraced and traced, and
the traced ones also yield per-layer metrics; the spans of the last traced
invocation are written to .perfbench_traces/<workload>.json.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402
from meanfieldlab import cli  # noqa: E402
from speedref import Sampler, scaled  # noqa: E402
from tracer import Tracer, layer_metrics, module_self_times  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench_traces"
SAMPLE_INTERVAL_S = 0.25  # least time between reference bursts inside an invocation


def invoke(workload, config, config_path, seed, out_dir, tracer=None):
    """One CLI invocation: (wall seconds, problem or None)."""
    argv = workload.argv(config_path, out_dir)
    if tracer is not None:
        tracer.install()
        root = tracer.recorder.open("cli.main")
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.recorder.close(root)
            tracer.uninstall()
    problem = f"exit code {code}" if code != 0 else check_outputs(workload, config, seed, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, problem


def environment() -> dict:
    """Library versions and the thread settings the invocations ran under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "scipy_fft_workers": scipy.fft.get_workers(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv) -> int:
    name, seed, seconds, trace, scratch = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    workload = WORKLOADS[name]
    config_path = scratch / "config.json"
    config = json.loads(config_path.read_text())

    walls, norm_walls, traced_walls, problems, traces, bursts = [], [], [], [], [], []
    sampler = Sampler(workload.reference, SAMPLE_INTERVAL_S)
    begin = time.perf_counter()
    while True:
        if trace:
            wall, problem = invoke(workload, config, config_path, seed, scratch / f"out{len(problems)}")
        else:
            sampler.install()
            sampler.begin()
            try:
                wall, problem = invoke(workload, config, config_path, seed, scratch / f"out{len(problems)}")
            finally:
                sampler.uninstall()
            sampler.end()
            wall -= sampler.spent
            norm_walls.append(scaled(wall, sampler.bursts, workload.reference))
            bursts += sampler.bursts
        walls.append(wall)
        problems.append(problem)
        if trace:
            tracer = Tracer()
            wall, problem = invoke(workload, config, config_path, seed, scratch / f"out{len(problems)}", tracer)
            traced_walls.append(wall)
            problems.append(problem)
            traces.append(tracer.recorder)
        per_round = (time.perf_counter() - begin) / len(walls)
        if time.perf_counter() - begin + per_round > seconds:
            break

    result = {
        "environment": environment(),
        "walls": walls,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not trace:
        result["norm_walls"] = norm_walls
        result["bursts"] = bursts
    else:
        per_trace = [layer_metrics(rec) for rec in traces]
        result["traced_walls"] = traced_walls
        result["layers"] = {k: statistics.median(m[k] for m in per_trace) for k in per_trace[0]}
        modules = [module_self_times(rec) for rec in traces]
        result["modules"] = {k: statistics.median(m.get(k, 0.0) for m in modules) for k in modules[0]}
        result["self_sums"] = [sum(m.values()) for m in modules]
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"{name}.json").write_text(json.dumps(traces[-1].to_json()))
    (scratch / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
