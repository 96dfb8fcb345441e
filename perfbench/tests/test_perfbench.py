"""Tests of the benchmark's own mechanics: spans, self time, metric names,
seeded configs, output checks, speed scaling and the refusal to run without
sources.

Run from the root of the repository:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speedref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Recorder, Span, Tracer, layer_metrics, module_self_times, self_times  # noqa: E402


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: coverage is the union [1, 6]
        Span("c", 9.0, 12.0, 0),  # runs past the parent: clipped to [9, 10]
        Span("d", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans_and_counts_after_the_call():
    rec = Recorder()
    inner = rec.traced("inner", lambda x: x + 1, after=lambda result, x: rec.count("work", result))
    outer = rec.traced(lambda x: f"outer.{x}", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert [(s.name, s.parent) for s in rec.spans] == [("outer.3", -1), ("inner", 0)]
    assert all(s.end >= s.start for s in rec.spans)
    assert rec.counters == {"work": 4}


def test_spans_close_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.traced("boom", boom)()
    assert rec.spans[0].end >= rec.spans[0].start and not rec._stack


def test_self_times_of_a_trace_add_up_to_the_root():
    rec = Recorder()
    leaf = rec.traced("m.leaf", lambda: time.sleep(0.002))
    mid = rec.traced("m.mid", lambda: [leaf() for _ in range(3)])
    root = rec.open("cli.main")
    mid()
    leaf()
    rec.close(root)
    total = rec.spans[0].end - rec.spans[0].start
    assert sum(self_times(rec.spans)) == pytest.approx(total, rel=1e-9)
    assert sum(module_self_times(rec).values()) == pytest.approx(total, rel=1e-9)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w.reference for w in workloads.WORKLOADS.values()} <= speedref.NOMINAL_S.keys()
    assert run.declared_metrics(True) == list(tracer.LAYER_METRICS)
    assert layer_metrics(Recorder()).keys() == tracer.LAYER_METRICS.keys() - {"trace_overhead_frac"}


def test_tracer_restores_every_wrapped_attribute():
    from meanfieldlab import fock, nbody

    before = (nbody.sfft, nbody.evolve_nbody, vars(fock.GeneratorSet)["matrix"], fock.expm_multiply)
    t = Tracer()
    t.install()
    assert nbody.evolve_nbody is not before[1]
    t.uninstall()
    after = (nbody.sfft, nbody.evolve_nbody, vars(fock.GeneratorSet)["matrix"], fock.expm_multiply)
    assert all(a is b for a, b in zip(before, after))


def _traced_cli(tmp_path, command, config):
    from meanfieldlab import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    t = Tracer()
    t.install()
    root = t.recorder.open("cli.main")
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    finally:
        t.recorder.close(root)
        t.uninstall()
    return code, t.recorder


def test_traced_rate_run_accounts_for_its_wall_time(tmp_path):
    config = {"particle_counts": [2, 3], "time": {"horizon": 0.04, "sample_times": [0.02, 0.04]}}
    code, rec = _traced_cli(tmp_path, "rate", config)
    assert code in (0, 1, 2)
    m = layer_metrics(rec)
    root = rec.spans[0]
    assert sum(module_self_times(rec).values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert m["nbody.fft.calls"] > 0 and m["nbody.state_bytes.N3"] == 16**3 * 16
    assert m["nbody.evolve_nbody.self_s.N2"] > 0 and m["nbody.evolve_nbody.self_s.N4"] == 0
    assert m["fock.matrix.calls"] == 0
    assert m["nbody.fft.bytes_computed"] > 0


def test_traced_fock_run_counts_steps_and_bank_reads(tmp_path):
    config = {
        "fock": {
            "sites": 2, "length": 2.0, "cutoff": 4, "cutoff_step": 1, "dt": 0.05,
            "coupling_values": [8, 16], "residual_time": 0.5, "identity_times": [0.5, 1.0],
        }
    }
    code, rec = _traced_cli(tmp_path, "fock-check", config)
    assert code in (0, 1, 2)
    m = layer_metrics(rec)
    assert m["fock.matrix.calls"] == m["fock.expm_multiply.calls"] == m["fock.evolve_fock.steps"] > 0
    assert m["fock.matrix.bytes_computed"] > 0
    assert m["fock.space_build_s"] > 0 and m["fock.generator_build_s"] > 0
    assert m["nbody.fft.calls"] == 0


def test_seed_perturbs_only_the_packet_and_repeats():
    for w in workloads.WORKLOADS.values():
        base = w.config(workloads.DEFAULT_SEED)
        assert json.dumps(base, sort_keys=True).count("center") == 0
        assert w.config(7) == w.config(7) != w.config(8)
        packet = w.config(7)
        for key in w.packet:
            packet = packet[key]
        assert set(packet) == {"center", "momentum"}
        assert abs(packet["center"] - w.center) <= w.center_spread
        assert abs(packet["momentum"]) <= w.momentum_spread


def test_reference_check_flags_a_changed_record(tmp_path):
    w = workloads.WORKLOADS["rate-small"]
    config = w.config(workloads.DEFAULT_SEED)
    shutil.copy(workloads.REFERENCE_DIR / "rate-small.csv", tmp_path / "records.csv")
    assert workloads.check_outputs(w, config, workloads.DEFAULT_SEED, tmp_path) is None
    lines = (tmp_path / "records.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) * 1.01)  # trace_err off by 1%
    lines[3] = ",".join(cells)
    (tmp_path / "records.csv").write_text("\n".join(lines) + "\n")
    assert "trace_err" in workloads.check_outputs(w, config, workloads.DEFAULT_SEED, tmp_path)
    # other seeds skip the reference but keep the range checks
    assert workloads.check_outputs(w, config, 5, tmp_path) is None


def test_fock_check_requires_every_item_to_pass(tmp_path):
    w = workloads.WORKLOADS["fock-check-coarse"]
    report = {"status": "pass", "items": [{"name": "leakage", "status": "pass"}]}
    (tmp_path / "fock_check.json").write_text(json.dumps(report))
    assert workloads.check_outputs(w, {}, 0, tmp_path) is None
    report["items"].append({"name": "kernel_columns", "status": "inconclusive"})
    (tmp_path / "fock_check.json").write_text(json.dumps(report))
    assert "kernel_columns" in workloads.check_outputs(w, {}, 0, tmp_path)


def test_scaling_to_nominal_speed_cancels_host_drift():
    for kind, nominal in speedref.NOMINAL_S.items():
        assert speedref.scaled(1.5, [nominal] * 3, kind) == pytest.approx(1.5)
        # a host running at half speed doubles both the wall time and the bursts
        assert speedref.scaled(3.0, [2 * nominal] * 2, kind) == pytest.approx(1.5)
        # the reference is the mean burst
        assert speedref.scaled(1.5, [nominal, 2 * nominal, 3 * nominal], kind) == pytest.approx(0.75)


def test_sampler_times_bursts_inside_an_invocation_and_restores_the_hooks():
    import numpy as np
    from meanfieldlab import fock, nbody

    before = (nbody.sfft, vars(fock.GeneratorSet)["matrix"], fock.expm_multiply)
    for kind in speedref.NOMINAL_S:
        sampler = speedref.Sampler(kind, interval=0.0)
        sampler.install()
        try:
            sampler.begin()
            x = np.arange(8.0) + 0j
            assert np.allclose(nbody.sfft.ifftn(nbody.sfft.fftn(x)), x)
            assert nbody.sfft.fftshift is before[0].fftshift
            sampler.end()
        finally:
            sampler.uninstall()
        assert len(sampler.bursts) == 4 and all(b > 0 for b in sampler.bursts)
        assert sampler.spent == pytest.approx(sum(sampler.bursts[1:3]))
    after = (nbody.sfft, vars(fock.GeneratorSet)["matrix"], fock.expm_multiply)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
