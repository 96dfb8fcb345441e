"""Configuration, record handling, rate fits, the pipeline driver, and the CLI."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanfieldlab.cli as cli
import meanfieldlab.harness as hn
import meanfieldlab.nbody as nb


def tiny_dict():
    """A configuration small enough that every subcommand finishes in seconds."""
    return {
        "grid": {"points": 20, "length": 10.0},
        "initial_state": {"center": 5.0, "width": 0.6},
        "particle_counts": [2, 3],
        "time": {"horizon": 0.2, "dt": 1e-3, "nbody_dt": 2e-3, "sample_times": [0.1, 0.2]},
        "fock": {
            "sites": 2,
            "length": 2.0,
            "cutoff": 8,
            "cutoff_step": 2,
            "dt": 5e-3,
            "coupling_values": [8, 16],
            "residual_time": 0.25,
            "identity_times": [0.25, 0.5],
            "initial_state": {"center": 0.9, "width": 0.5},
        },
        "combinatorics": {"counts": [4, 16, 64], "krasikov_grid": [10]},
    }


@pytest.fixture(scope="module")
def tiny_config():
    return hn.ExperimentConfig.from_dict(tiny_dict())


@pytest.fixture(scope="module")
def tiny_run(tiny_config):
    return hn.run_convergence(tiny_config, quiet=True)


# ---------------------------------------------------------------- configuration


def test_empty_dict_gives_defaults():
    assert hn.ExperimentConfig.from_dict({}) == hn.ExperimentConfig()


def test_nested_overrides_land_in_the_right_fields(tiny_config):
    cfg = tiny_config
    assert cfg.grid_points == 20 and cfg.grid_length == 10.0
    assert cfg.initial_state.center == 5.0 and cfg.initial_state.width == 0.6
    assert cfg.particle_counts == (2, 3)
    assert cfg.horizon == 0.2 and cfg.nbody_dt == 2e-3
    assert cfg.sample_times == (0.1, 0.2)
    assert cfg.fock.sites == 2 and cfg.fock.cutoff == 8
    assert cfg.fock.identity_times == (0.25, 0.5)
    assert cfg.combinatorics_counts == (4, 16, 64)
    # untouched sections keep their defaults
    assert cfg.potential == hn.ExperimentConfig().potential
    # a partial section keeps the defaults of its other keys
    partial = hn.ExperimentConfig.from_dict({"fock": {"initial_state": {"width": 0.5}}})
    assert partial.fock.initial_state.center == 1.7 and partial.fock.initial_state.width == 0.5
    # a JSON integer in a float field loads as that float
    length = hn.ExperimentConfig.from_dict({"grid": {"length": 10}}).grid_length
    assert length == 10.0 and type(length) is float


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_config_block() -> str:
    return _readme().split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_is_the_default():
    assert hn.ExperimentConfig.from_dict(json.loads(_readme_config_block())) == hn.ExperimentConfig()


def test_readme_threshold_table_is_the_table_in_code():
    section = _readme().split("## Verdict thresholds\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, value = (cell.strip() for cell in line.split("|")[1:3])
            value = json.loads(value)
            table[name.strip("`")] = tuple(value) if isinstance(value, list) else value
    assert table == asdict(hn.THRESHOLDS)


def test_default_lattice_section_is_self_consistent():
    fsec = hn.ExperimentConfig().fock
    assert fsec.cutoff == 13
    assert fsec.sites == 4
    # every snapshot the battery requests must land on a step boundary
    for ts in (*fsec.identity_times, fsec.residual_time):
        steps = ts / fsec.dt
        assert abs(steps - round(steps)) < 1e-9


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ({"grip": {}}, "grip"),
        ({"grid": {"pointz": 8}}, "grid"),
        ({"time": {"horizonn": 1.0}}, "horizonn"),
        ({"fock": {"cutof": 3}}, "fock"),
        ({"initial_state": {"centre": 1.0}}, "centre"),
        ({"tolerances": {"mass": 1.0}}, "tolerances"),
        ({"potential": {"kinds": "zero"}}, "potential"),
        ({"combinatorics": {"count": [4]}}, "combinatorics"),
        ({"fock": {"initial_state": {"centre": 1.0}}}, "fock.initial_state"),
        ({"seed": 0}, "seed"),
        ({"grid": 5}, "grid"),
        ({"particle_counts": 3}, "particle_counts"),
        ({"grid": {"points": 16.7}}, "grid.points"),
        ({"fock": {"cutoff": True}}, "fock.cutoff"),
        ({"particle_counts": [2.9, 3]}, "particle_counts"),
        ({"time": {"horizon": False}}, "time.horizon"),
        ({"potential": {"width": "1"}}, "potential.width"),
        ({"grid": {"length": 10**400}}, "grid.length"),
        ({"time": {"horizon": float("inf")}}, "time.horizon"),
        ({"fock": {"dt": float("nan")}}, "fock.dt"),
        ({"initial_state": {"profile": "gaussian"}}, "profile"),
        # the potential is one Gaussian: its former kind, harmonic and softening keys are unknown
        ({"potential": {"kind": "gaussian"}}, "kind"),
        ({"potential": {"harmonic": 1}}, "harmonic"),
        ({"potential": {"softening": 1.0}}, "softening"),
        # the potential checks itself as the loader builds it
        ({"potential": {"width": 0}}, "config.potential: width"),
        ({"potential": {"width": 1e200}}, "config.potential: width"),
    ],
)
def test_unknown_keys_are_rejected(bad, fragment):
    with pytest.raises(hn.ConfigError, match=fragment):
        hn.ExperimentConfig.from_dict(bad)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    points=st.integers(-(2**40), 2**40),
    length=finite | st.integers(-(2**40), 2**40),
    counts=st.lists(st.integers(1, 9), max_size=4),
    cutoff=st.integers(0, 40),
    width=finite,
    sample_times=st.lists(finite | st.integers(-5, 5), max_size=3),
)
def test_valid_scalar_overrides_load_exactly(points, length, counts, cutoff, width, sample_times):
    raw = {
        "grid": {"points": points, "length": length},
        "particle_counts": counts,
        "time": {"sample_times": sample_times},
        "fock": {"cutoff": cutoff, "initial_state": {"width": width}},
    }
    default = hn.ExperimentConfig()
    want = replace(
        default,
        grid_points=points,
        grid_length=float(length),
        particle_counts=tuple(counts),
        sample_times=tuple(float(v) for v in sample_times),
        fock=replace(
            default.fock,
            cutoff=cutoff,
            initial_state=replace(default.fock.initial_state, width=width),
        ),
    )
    got = hn.ExperimentConfig.from_dict(raw)
    assert got == want
    assert type(got.grid_length) is float
    assert all(type(v) is float for v in got.sample_times)


def test_config_hash_is_stable_and_sensitive(tiny_config):
    again = hn.ExperimentConfig.from_dict(tiny_dict())
    assert tiny_config.config_hash() == again.config_hash()
    assert len(tiny_config.config_hash()) == 64
    bumped = hn.ExperimentConfig.from_dict({**tiny_dict(), "grid": {"points": 21, "length": 10.0}})
    assert bumped.config_hash() != tiny_config.config_hash()


def test_from_json_reads_a_file(tmp_path, tiny_config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_dict()))
    assert hn.ExperimentConfig.from_json(path) == tiny_config


def test_to_dict_survives_json(tiny_config):
    blob = json.dumps(tiny_config.to_dict(), sort_keys=True)
    assert json.loads(blob)["grid"]["points"] == 20
    assert hn.ExperimentConfig().to_dict() == json.loads(_readme_config_block())


def _json_values(default):
    """Strategy for JSON values laid out like ``default``, a value of ``to_dict()``."""
    if isinstance(default, dict):
        return st.fixed_dictionaries({}, optional={k: _json_values(v) for k, v in default.items()})
    if isinstance(default, list):
        return st.lists(_json_values(default[0]), max_size=4)
    return {int: st.integers(-(2**40), 2**40), float: finite}[type(default)]


positive = st.floats(1e-3, 1e3)
config_dicts = st.fixed_dictionaries(
    {},
    optional={
        **{
            key: _json_values(value)
            for key, value in hn.ExperimentConfig().to_dict().items()
            if key != "potential"
        },
        # PotentialSpec validates itself, so only valid potentials are drawn
        "potential": st.fixed_dictionaries({}, optional={"amplitude": finite, "width": positive}),
    },
)


@settings(max_examples=60, deadline=None)
@given(raw=config_dicts)
def test_to_dict_round_trips_through_the_loader(raw):
    config = hn.ExperimentConfig.from_dict(raw)
    assert hn.ExperimentConfig.from_dict(config.to_dict()) == config
    again = hn.ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config
    assert again.config_hash() == config.config_hash()


# ---------------------------------------------------------------- records and fits


def _fake_records():
    out = []
    for i, n in enumerate((2, 3, 5)):
        out.append(
            hn.RunRecord(
                N=n,
                t=0.5,
                trace_err=1.0 / 3.0 / n,
                hs_err=1e-17 * (i + 1),
                e2_norm=0.25 / n,
                e_minus_e2_norm=1e-3,
                energy_drift=-0.0,
                sym_defect=0.0,
                boundary_mass=np.pi * 1e-12,
            )
        )
    return out


def test_records_round_trip_exactly(tmp_path):
    path = tmp_path / "records.csv"
    recs = _fake_records()
    path.write_text(hn.records_csv(recs))
    assert hn.load_records(path) == recs


def test_load_rejects_foreign_header(tmp_path):
    header = ",".join(hn.RECORD_COLUMNS)
    # a foreign header, an empty file, and a row with too few fields
    for text in ("a,b,c\n1,2,3\n", "", f"{header}\n2,0.5,0.1\n"):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            hn.load_records(path)


def test_fit_recovers_a_synthetic_power_law():
    counts = np.array([2, 3, 4, 6, 8], dtype=float)
    fit = hn.fit_rate(list(zip(counts, 3.7 * counts**-1.04)))
    assert abs(fit.slope + 1.04) < 1e-12
    assert abs(fit.intercept - np.log(3.7)) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12
    assert fit.n_points == 5


def test_fit_validation():
    with pytest.raises(ValueError):
        hn.fit_rate([(2.0, 1.0)])
    with pytest.raises(ValueError):
        hn.fit_rate([(2.0, 1.0), (3.0, 0.0)])


def test_records_for_fit_filters_by_time_and_sorts():
    recs = _fake_records()[::-1]  # descending count
    more = [hn.RunRecord(4, 0.25, 0.9, 0, 0, 0, 0, 0, 0)]
    pairs = hn.records_for_fit(recs + more, t=0.5)
    assert pairs == [(r.N, r.trace_err) for r in _fake_records()]
    e2 = hn.records_for_fit(recs, t=0.5, column="e2_norm")
    assert e2 == [(r.N, r.e2_norm) for r in _fake_records()]


# ---------------------------------------------------------------- pipeline driver


def test_pipeline_produces_one_record_per_count_and_time(tiny_run, tiny_config):
    assert len(tiny_run.records) == 4
    seen = {(r.N, r.t) for r in tiny_run.records}
    assert seen == {(n, t) for n in (2, 3) for t in (0.1, 0.2)}
    assert set(tiny_run.fits) == {"0.1", "0.2"}
    assert len(tiny_run.mass_drifts) == 4 and np.max(tiny_run.mass_drifts) <= hn.THRESHOLDS.mass_drift
    assert all(r.sym_defect <= hn.THRESHOLDS.sym_defect for r in tiny_run.records)
    assert all(r.boundary_mass <= hn.THRESHOLDS.boundary_mass for r in tiny_run.records)
    for fit in tiny_run.fits.values():
        assert -1.1 < fit["slope"] < -0.9


def test_pipeline_rejects_bad_sample_plans(tiny_config):
    with pytest.raises(hn.ConfigError):
        hn.run_convergence(replace(tiny_config, sample_times=()), quiet=True)
    with pytest.raises(hn.ConfigError):
        hn.run_convergence(replace(tiny_config, sample_times=(0.1, 0.3)), quiet=True)


def test_exceeded_diagnostic_is_inconclusive_and_rate_band_miss_fails(tiny_config, monkeypatch):
    strict = replace(hn.THRESHOLDS, sym_defect=0.0)
    monkeypatch.setattr(hn, "THRESHOLDS", strict)
    report, _ = hn.convergence_check(tiny_config, fit=True)
    status = {item.name: item.status for item in report.items}
    assert status == {
        "mass_drift": "pass",
        "sym_defect": "inconclusive",
        "boundary_mass": "pass",
        "slope": "pass",
        "r_squared": "pass",
    }
    assert report.status == "inconclusive"
    monkeypatch.setattr(hn, "THRESHOLDS", replace(strict, rate_band=(-0.5, 0.0)))
    report, _ = hn.convergence_check(tiny_config, fit=True)
    assert report.status == "fail"


@pytest.fixture(scope="module")
def tiny_rate(tiny_config):
    return hn.convergence_check(tiny_config, fit=True)


def test_a_nan_diagnostic_reads_inconclusive(tiny_config, monkeypatch):
    """One NaN symmetry defect is the worst one, not skipped by the reduction."""
    calls = []

    def nan_once(state, _original=nb.symmetry_defect):
        calls.append(1)
        return float("nan") if len(calls) == 2 else _original(state)

    monkeypatch.setattr(nb, "symmetry_defect", nan_once)
    report, _ = hn.convergence_check(tiny_config, fit=False)
    item = {i.name: i for i in report.items}["sym_defect"]
    assert len(calls) == 4
    assert item.status == "inconclusive" and np.isnan(item.measured)


def test_manifest_is_deterministic(tiny_run, tiny_config, tiny_rate):
    report, files = tiny_rate
    a, b = hn.manifest_json(tiny_run, report), hn.manifest_json(tiny_run, report)
    blob = json.loads(a)
    assert blob["config_hash"] == tiny_config.config_hash()
    assert blob["n_records"] == 4
    assert "versions" in blob and "rate_fits" in blob
    assert blob["thresholds"] == json.loads(json.dumps(asdict(hn.THRESHOLDS)))
    assert a == b
    # the config block is a valid config file for a rerun
    assert hn.ExperimentConfig.from_dict(blob["config"]) == tiny_config
    # the manifest of a rate run carries the report that run returned
    assert json.loads(files["manifest.json"])["report"] == report.to_dict()
    assert [i["name"] for i in blob["report"]["items"]][-2:] == ["slope", "r_squared"]


def test_readme_names_every_manifest_key(tiny_rate):
    _, files = tiny_rate
    section = _readme().split("## Manifest\n", 1)[1].split("\n## ", 1)[0]
    named = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
    assert named == set(json.loads(files["manifest.json"]))


def test_rerun_writes_bitwise_identical_records(tiny_config, tiny_run):
    again = hn.run_convergence(tiny_config, quiet=True)
    assert hn.records_csv(tiny_run.records) == hn.records_csv(again.records)


def test_convergence_takes_one_marginal_per_state(tiny_config, tiny_run, monkeypatch):
    # one at t = 0 for the reference energy, then one per sample time that the
    # record and the energy share
    calls = []
    original = nb.reduce_marginal
    monkeypatch.setattr(nb, "reduce_marginal", lambda state, k=1: calls.append(state.t) or original(state, k))
    again = hn.run_convergence(tiny_config, quiet=True)
    assert hn.records_csv(again.records) == hn.records_csv(tiny_run.records)
    per_count = [0.0, *tiny_config.sample_times]
    assert calls == pytest.approx(per_count * len(tiny_config.particle_counts), abs=1e-12)


# ---------------------------------------------------------------- lattice battery


def test_battery_marks_cutoff_sensitive_numbers_inconclusive(tiny_config):
    report, files = hn.cross_validate(tiny_config, quiet=True)
    by_name = {item.name: item for item in report.items}
    assert set(by_name) == {
        "leakage",
        "depletion_identity_t0.25",
        "depletion_identity_t0.5",
        "kernel_columns",
        "parity_odd_mass",
        "moment_stability",
        "residual_ratio_8_to_16",
    }
    # at cutoff 8 the truncation tail is still moving: the sweep must refuse
    # to certify it rather than report a clean pass or fail
    assert by_name["leakage"].status == "inconclusive"
    assert by_name["parity_odd_mass"].measured == 0.0
    assert by_name["depletion_identity_t0.25"].status == "pass"
    assert report.status == "inconclusive"
    assert json.loads(files["fock_check.json"]) == report.to_dict()


def test_battery_evolves_each_one_body_flow_once(tiny_config, monkeypatch):
    """Both cutoffs share one Hartree trajectory and one pair-kernel run."""
    calls = {}
    for module, name in ((hn.ha, "evolve_hartree"), (hn.bg, "evolve_pair")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    hn.cross_validate(tiny_config, quiet=True)
    assert calls == {"evolve_hartree": 1, "evolve_pair": 1}


def test_battery_fails_on_true_leakage():
    cfg = hn.ExperimentConfig.from_dict({**tiny_dict(), "fock": {**tiny_dict()["fock"], "cutoff": 12}})
    report, _ = hn.cross_validate(cfg, quiet=True)
    by_name = {item.name: item for item in report.items}
    # cutoff 12 on two sites: the sweep agrees, the number is just too big
    assert by_name["leakage"].status == "fail"
    assert by_name["leakage"].measured > 1e-6
    assert report.status == "fail"


# ---------------------------------------------------------------- command line


@pytest.fixture
def hartree_flows(monkeypatch):
    """One entry per ``hartree.evolve_hartree`` call the test makes."""
    calls = []

    def counted(*args, _original=hn.ha.evolve_hartree, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(hn.ha, "evolve_hartree", counted)
    return calls


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.json"
    path.write_text(json.dumps(tiny_dict()))
    return path


def test_cli_rate_writes_records_and_manifest(tmp_path, cfg_file, capsys):
    out = tmp_path / "rate"
    assert cli.main(["rate", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "records.csv").exists() and (out / "manifest.json").exists()
    assert "slope" in capsys.readouterr().out
    recs = hn.load_records(out / "records.csv")
    assert len(recs) == 4


def test_cli_quiet_silences_stdout(tmp_path, cfg_file, capsys):
    assert cli.main(["hartree", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_hartree_csv_is_parseable(tmp_path, cfg_file):
    assert cli.main(["hartree", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"]) == 0
    table = np.loadtxt(tmp_path / "hartree.csv", delimiter=",", skiprows=1)
    assert table.shape[1] == 4
    assert (tmp_path / "hartree.csv").read_text().splitlines()[0] == "t,mass_drift,energy_drift,boundary_mass"
    assert np.all(table[:, 1] < 1e-10)


def test_cli_bogoliubov_passes_on_tiny_config(tmp_path, cfg_file):
    assert cli.main(["bogoliubov", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "bogoliubov.csv").read_text().splitlines()
    assert lines[0] == "t,depletion,identity_defect,symmetry_defect"


def test_cli_laguerre_csv_is_parseable(tmp_path, cfg_file):
    assert cli.main(["laguerre", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"]) == 0
    table = np.loadtxt(tmp_path / "laguerre.csv", delimiter=",", skiprows=1)
    assert table.shape == (3, 5)
    assert np.all(table[:, 2] <= 1.0 + 1e-10)


def test_cli_fock_check_maps_report_status_to_exit_code(tmp_path, cfg_file):
    code = cli.main(["fock-check", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"])
    blob = json.loads((tmp_path / "fock_check.json").read_text())
    assert blob["status"] == "inconclusive"
    assert code == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command, item", [("hartree", "mass_drift"), ("bogoliubov", "pair_relation_defect")])
def test_cli_fails_a_flow_that_turns_to_nan(tmp_path, capsys, command, item):
    """On a grid of length 1e-300 every value after t = 0 is NaN, and a NaN fails its item."""
    raw = tiny_dict()
    raw["grid"]["length"] = 1e-300
    path = tmp_path / "tiny_grid.json"
    path.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"  {item}: fail (measured nan," in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_cli_rerun_is_bitwise_identical(tmp_path, cfg_file, command):
    """Every output file of a rerun has the same bytes."""
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        cli.main([command, "--config", str(cfg_file), "--out", str(out), "--quiet"])
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


def test_rate_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The same bytes at one and at two BLAS threads, in fresh processes.

    N = 5 on 16 points is several slabs, so the step's worker count changes
    with the BLAS threads too.
    """
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"particle_counts": [2, 5], "time": {"horizon": 0.008, "sample_times": [0.004, 0.008]}}))
    src = str(Path(hn.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = [sys.executable, "-m", "meanfieldlab.cli", "rate", "--config", str(cfg), "--out", str(out), "--quiet"]
        subprocess.run(argv, env=env, check=True, timeout=300)
        outputs.append({name: (out / name).read_bytes() for name in ("records.csv", "manifest.json")})
    assert outputs[0] == outputs[1]


def test_cli_looks_up_the_checks_when_it_runs(tmp_path, cfg_file, monkeypatch):
    """A wrapper installed on the harness module after import is the one the CLI calls."""
    calls = {}
    for name in ("run_convergence", "cross_validate"):
        def counted(*args, _original=getattr(hn, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(hn, name, counted)
    for command in ("rate", "fock-check"):
        cli.main([command, "--config", str(cfg_file), "--out", str(tmp_path / command), "--quiet"])
    assert calls == {"run_convergence": 1, "cross_validate": 1}


def test_cli_missing_config_reports_error(tmp_path, capsys):
    code = cli.main(["rate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_bad_config_key_reports_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"pointz": 8}}))
    code = cli.main(["rate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "pointz" in capsys.readouterr().err


BIG = {"grid": {"points": 17}, "particle_counts": [7]}


@pytest.mark.parametrize(
    "command, fragment, raw, exit_code",
    [
        # refused before allocating (exit 3): a sweep at 17^7 or 16^7 needs four 4 GiB arrays
        pytest.param("nbody", "exceeds the budget", BIG, 3, id="nbody-exceeds the budget"),
        pytest.param("rate", "two particle counts", BIG, 1, id="rate-two particle counts"),
        pytest.param(
            "nbody", "exceeds the budget", {"particle_counts": [7]}, 3, id="nbody-default grid at N=7"
        ),
    ],
)
def test_cli_refused_run_reports_error(tmp_path, capsys, command, fragment, raw, exit_code):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == exit_code
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


def test_refused_sweep_starts_no_thread(tmp_path, monkeypatch, capsys):
    # N = 5 would run its step on two workers; N = 7 is refused before any N runs
    monkeypatch.setattr(nb, "_pool_size", lambda: 2)
    pools = []
    monkeypatch.setattr(nb, "ThreadPoolExecutor", lambda *a: pools.append(a))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"particle_counts": [5, 7]}))
    threads = threading.active_count()
    assert cli.main(["rate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 3
    assert "exceeds the budget" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert pools == []


LATTICE_KEYS = "fock.sites at fock.cutoff + fock.cutoff_step"


@pytest.mark.parametrize(
    "fock, fragment, exit_code",
    [
        pytest.param({"sites": 16}, "exceeds the budget", 3, id="C(29,16) basis states"),
        # the base lattice fits; the swept one is refused before the base battery runs
        pytest.param({"cutoff": 60, "cutoff_step": 6}, "exceeds the budget", 3, id="swept cutoff"),
        # a bank of 320 MB, but keys up to 3^41 that overflow int64
        pytest.param({"sites": 40, "cutoff": 1, "cutoff_step": 1}, "overflow int64", 1, id="int64 keys"),
    ],
)
def test_cli_fock_check_refuses_an_oversized_lattice_before_allocating(
    tmp_path, capsys, hartree_flows, fock, fragment, exit_code
):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"fock": fock}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["fock-check", "--config", str(path), "--out", str(out), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {LATTICE_KEYS}: ") and fragment in err
    assert not (out / "fock_check.json").exists()
    assert hartree_flows == []
    assert peak < 2**20


@pytest.mark.parametrize(
    "fock, fragment",
    [
        ({"cutoff_step": 0}, "fock.cutoff_step"),  # would compare a run with itself
        ({"coupling_values": [8, 24]}, "fock.coupling_values"),  # no residual ratio item
        ({"coupling_values": [8]}, "fock.coupling_values"),
        ({"coupling_values": [8, 12, 16]}, "fock.coupling_values"),  # 8 and 16 are not neighbours
        ({"coupling_values": [0, 0]}, "fock.coupling_values"),  # no field strength 1/N
        ({"identity_times": []}, "fock.identity_times"),
        # no backward flow from time zero
        ({"residual_time": 0.0}, "fock.residual_time"),
        # off the fock.dt = 0.005 steps
        ({"identity_times": [0.2525, 0.5]}, "fock.identity_times"),
        # a lattice horizon of 1 is not a whole number of steps
        ({"dt": 0.3, "residual_time": 0.6, "identity_times": [0.3, 0.9]}, "fock.dt"),
        # a repeated time or value would run and report its items twice
        ({"identity_times": [0.25, 0.25, 0.5]}, "fock.identity_times"),
        ({"coupling_values": [8, 8, 16]}, "fock.coupling_values"),
        ({"cutoff": 0}, "fock.cutoff"),
        ({"cutoff": -3}, "fock.cutoff"),
        ({"sites": 0}, "fock.sites"),
        ({"dt": 0}, "fock.dt"),
        ({"length": 0}, "fock.length"),
        ({"initial_state": {"width": 0}}, "fock.initial_state.width"),
        ({"dt": 1e-320}, "fock.dt"),  # the lattice horizon is no finite number of steps
    ],
)
def test_cli_fock_check_refuses_vacuous_settings(tmp_path, capsys, hartree_flows, fock, fragment):
    raw = tiny_dict()
    raw["fock"].update(fock)
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli.main(["fock-check", "--config", str(path), "--out", str(out), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not (out / "fock_check.json").exists()
    assert hartree_flows == []


# 2^30 + 1 stored states of 20 amplitudes (343 GB), or 2^34 + 1 of 2 on the
# lattice (550 GB): steps exact in binary, so the spans are whole numbers of them
HUGE_FLOWS = {
    "hartree": ({"time": {"horizon": 2.0**20, "dt": 2.0**-10}}, "time.horizon over time.dt"),
    "rate": ({"time": {"horizon": 2.0**20, "dt": 2.0**-10, "sample_times": [0.5, 1.0]}}, "time.horizon over time.dt"),
    "bogoliubov": ({"time": {"horizon": 2.0**20, "dt": 2.0**-10, "sample_times": [0.5]}}, "time.horizon over time.dt"),
    "fock-check": ({"fock": {"dt": 2.0**-34}}, "fock.dt"),
}


@pytest.mark.parametrize("command", sorted(HUGE_FLOWS))
def test_cli_refuses_a_hartree_trajectory_over_the_budget_before_allocating(tmp_path, capsys, hartree_flows, command):
    change, fragment = HUGE_FLOWS[command]
    raw = tiny_dict()
    for key, value in change.items():
        raw[key].update(value)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", str(path), "--out", str(out), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}") and "exceeds the budget" in err
    assert not any(out.iterdir())
    assert hartree_flows == []
    assert peak < 2**20


@pytest.mark.parametrize(
    "command, change, fragment",
    [
        pytest.param("nbody", {"particle_counts": []}, "particle_counts", id="nbody-no particle count"),
        pytest.param("rate", {"particle_counts": [2, 2]}, "particle_counts", id="rate-one distinct count"),
        pytest.param("nbody", {"particle_counts": [2, 2]}, "particle_counts", id="nbody-repeated count"),
        pytest.param("rate", {"particle_counts": [2, 2, 3]}, "particle_counts", id="rate-repeated count"),
        pytest.param("bogoliubov", {"particle_counts": [3, 2, 3]}, "particle_counts", id="bogoliubov-repeated count"),
        pytest.param("nbody", {"particle_counts": [0]}, "particle_counts [0] must", id="nbody-count below 1"),
        pytest.param("rate", {"particle_counts": [2, 0]}, "particle_counts [2, 0] must", id="rate-count below 1"),
        pytest.param(
            "bogoliubov", {"particle_counts": [0, 2]}, "particle_counts [0, 2] must", id="bogoliubov-count below 1"
        ),
        # 20^7 amplitudes: the N = 2 and 3 sweeps fit, N = 7 does not
        pytest.param(
            "nbody", {"particle_counts": [2, 7]}, "particle_counts [2, 7]: a sweep over 20^7",
            id="nbody-count over the budget",
        ),
        pytest.param(
            "rate", {"particle_counts": [2, 3, 7]}, "particle_counts [2, 3, 7]: a sweep over 20^7",
            id="rate-count over the budget",
        ),
        pytest.param("hartree", {"time": {"horizon": 0.2005}}, "time.horizon", id="hartree-horizon off the steps"),
        pytest.param(
            "bogoliubov", {"time": {"sample_times": [0.1005, 0.2]}}, "time.sample_times",
            id="bogoliubov-sample time off the steps",
        ),
        pytest.param(
            "rate", {"time": {"sample_times": [0.1, 0.105]}}, "time.nbody_dt", id="rate-sample time off the N-body steps"
        ),
        pytest.param(
            "bogoliubov", {"time": {"sample_times": []}}, "time.sample_times", id="bogoliubov-no sample time"
        ),
        pytest.param(
            "laguerre", {"combinatorics": {"krasikov_grid": []}}, "combinatorics.krasikov_grid",
            id="laguerre-no envelope count",
        ),
        pytest.param(
            "laguerre", {"combinatorics": {"krasikov_grid": [1]}}, "combinatorics.krasikov_grid",
            id="laguerre-no envelope order",
        ),
        pytest.param(
            "laguerre", {"combinatorics": {"counts": []}}, "combinatorics.counts", id="laguerre-no count"
        ),
        pytest.param("hartree", {"time": {"dt": 0}}, "time.dt", id="hartree-zero step"),
        pytest.param("bogoliubov", {"time": {"dt": 0}}, "time.dt", id="bogoliubov-zero step"),
        pytest.param("rate", {"time": {"nbody_dt": 0}}, "time.nbody_dt", id="rate-zero N-body step"),
        # spans that are no finite number of steps
        pytest.param("hartree", {"time": {"horizon": 1e308}}, "time.horizon", id="hartree-overflowing horizon"),
        pytest.param("rate", {"time": {"horizon": 1e308}}, "time.horizon", id="rate-overflowing horizon"),
        pytest.param("hartree", {"time": {"dt": 1e-320}}, "time.dt", id="hartree-subnormal step"),
        pytest.param("rate", {"time": {"nbody_dt": 1e-320}}, "time.nbody_dt", id="rate-subnormal N-body step"),
        # a whole number of negative steps would run backward in time
        pytest.param(
            "hartree", {"time": {"dt": -1e-3, "horizon": -1.0}}, "time.dt", id="hartree-negative step"
        ),
        pytest.param("hartree", {"initial_state": {"width": 0}}, "initial_state.width", id="hartree-zero width"),
        pytest.param("rate", {"initial_state": {"width": 0}}, "initial_state.width", id="rate-zero width"),
        pytest.param(
            "hartree", {"initial_state": {"width": 1e200}}, "initial_state.width", id="hartree-overflowing width"
        ),
        # every grid point of the 10/20 grid lies far outside a packet centred between two of them
        pytest.param(
            "hartree", {"initial_state": {"center": 5.25, "width": 1e-3}}, "initial_state.width",
            id="hartree-packet between grid points",
        ),
        pytest.param("hartree", {"grid": {"points": 0}}, "grid.points", id="hartree-no grid point"),
        pytest.param("hartree", {"grid": {"length": -1.0}}, "grid.length", id="hartree-negative length"),
        pytest.param(
            "laguerre", {"combinatorics": {"counts": [0, 4]}}, "combinatorics.counts", id="laguerre-count below 1"
        ),
        pytest.param(
            "rate", {"time": {"sample_times": [0.1, 0.1, 0.2]}}, "time.sample_times [0.1, 0.1, 0.2] repeats",
            id="rate-repeated sample time",
        ),
        pytest.param(
            "bogoliubov", {"time": {"sample_times": [0.2, 0.1, 0.2]}}, "time.sample_times [0.2, 0.1, 0.2] repeats",
            id="bogoliubov-repeated sample time",
        ),
    ],
)
def test_cli_refuses_vacuous_settings(tmp_path, capsys, hartree_flows, command, change, fragment):
    """Each refusal names its key and comes before the first flow."""
    raw = tiny_dict()
    for key, value in change.items():
        if isinstance(value, dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(path), "--out", str(out), "--quiet"])
    # a sweep over the byte budget is refused with exit 3, every other setting with exit 1
    assert code == (3 if "a sweep over" in fragment else 1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not any(out.iterdir())
    assert hartree_flows == []
