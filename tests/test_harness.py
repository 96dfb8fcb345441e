"""Configuration, record handling, rate fits, the pipeline driver, and the CLI."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanfieldlab.cli as cli
import meanfieldlab.harness as hn


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
    assert cfg.tolerances == hn.ToleranceConfig()
    # a partial section keeps the defaults of its other keys
    partial = hn.ExperimentConfig.from_dict({"fock": {"initial_state": {"width": 0.5}}})
    assert partial.fock.initial_state.center == 1.7 and partial.fock.initial_state.width == 0.5
    # a JSON integer in a float field loads as that float
    length = hn.ExperimentConfig.from_dict({"grid": {"length": 10}}).grid_length
    assert length == 10.0 and type(length) is float


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_is_the_default():
    assert hn.ExperimentConfig.from_dict(json.loads(_readme_config_block())) == hn.ExperimentConfig()


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
        ({"initial_state": {"profile": 3}}, "initial_state.profile"),
        ({"grid": {"length": 10**400}}, "grid.length"),
        ({"time": {"horizon": float("inf")}}, "time.horizon"),
        ({"tolerances": {"mass_drift": float("nan")}}, "tolerances.mass_drift"),
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
    profile=st.text(max_size=6),
    cutoff=st.integers(0, 40),
    width=finite,
    rate_band=st.lists(finite | st.integers(-5, 5), max_size=3),
)
def test_valid_scalar_overrides_load_exactly(
    points, length, counts, profile, cutoff, width, rate_band
):
    raw = {
        "grid": {"points": points, "length": length},
        "particle_counts": counts,
        "initial_state": {"profile": profile},
        "fock": {"cutoff": cutoff, "initial_state": {"width": width}},
        "tolerances": {"rate_band": rate_band},
    }
    default = hn.ExperimentConfig()
    want = replace(
        default,
        grid_points=points,
        grid_length=float(length),
        particle_counts=tuple(counts),
        initial_state=replace(default.initial_state, profile=profile),
        fock=replace(
            default.fock,
            cutoff=cutoff,
            initial_state=replace(default.fock.initial_state, width=width),
        ),
        tolerances=replace(default.tolerances, rate_band=tuple(float(v) for v in rate_band)),
    )
    got = hn.ExperimentConfig.from_dict(raw)
    assert got == want
    assert type(got.grid_length) is float
    assert all(type(v) is float for v in got.tolerances.rate_band)


def test_unknown_initial_profile_is_rejected():
    cfg = hn.ExperimentConfig.from_dict({"initial_state": {"profile": "plane"}})
    with pytest.raises(hn.ConfigError, match="plane"):
        cfg.initial_state.build(cfg.grid())


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
    return {int: st.integers(-(2**40), 2**40), float: finite, str: st.text(max_size=6)}[type(default)]


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
        "potential": st.fixed_dictionaries(
            {"kind": st.sampled_from(["zero", "gaussian", "cosine", "soft_coulomb"])},
            optional={
                "amplitude": finite,
                "width": positive,
                "harmonic": st.integers(1, 9),
                "softening": positive,
            },
        ),
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
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
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
    assert all(tiny_run.diagnostics["ok"].values())
    for fit in tiny_run.fits.values():
        assert -1.1 < fit["slope"] < -0.9


def test_pipeline_rejects_bad_sample_plans(tiny_config):
    with pytest.raises(hn.ConfigError):
        hn.run_convergence(replace(tiny_config, sample_times=()), quiet=True)
    with pytest.raises(hn.ConfigError):
        hn.run_convergence(replace(tiny_config, sample_times=(0.1, 0.3)), quiet=True)


def test_exceeded_diagnostic_is_inconclusive_and_rate_band_miss_fails(tiny_config):
    strict = replace(tiny_config.tolerances, sym_defect=0.0)
    report, _ = hn.convergence_check(replace(tiny_config, tolerances=strict), fit=True)
    status = {item.name: item.status for item in report.items}
    assert status == {
        "mass_drift": "pass",
        "sym_defect": "inconclusive",
        "boundary_mass": "pass",
        "slope": "pass",
        "r_squared": "pass",
    }
    assert report.status == "inconclusive"
    off_band = replace(strict, rate_band=(-0.5, 0.0))
    report, _ = hn.convergence_check(replace(tiny_config, tolerances=off_band), fit=True)
    assert report.status == "fail"


def test_manifest_is_deterministic(tiny_run, tiny_config):
    a, b = hn.manifest_json(tiny_run), hn.manifest_json(tiny_run)
    blob = json.loads(a)
    assert blob["config_hash"] == tiny_config.config_hash()
    assert blob["n_records"] == 4
    assert "versions" in blob and "rate_fits" in blob
    assert a == b
    # the config block is a valid config file for a rerun
    assert hn.ExperimentConfig.from_dict(blob["config"]) == tiny_config


def test_rerun_writes_bitwise_identical_records(tiny_config, tiny_run):
    again = hn.run_convergence(tiny_config, quiet=True)
    assert hn.records_csv(tiny_run.records) == hn.records_csv(again.records)


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


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_cli_rerun_is_bitwise_identical(tmp_path, cfg_file, command):
    """Every output file of a rerun has the same bytes."""
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        cli.main([command, "--config", str(cfg_file), "--out", str(out), "--quiet"])
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


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
    "command, fragment, raw",
    [
        # refused before allocating: a sweep at 17^7 or 16^7 needs four 4 GiB arrays
        pytest.param("nbody", "exceeds the budget", BIG, id="nbody-exceeds the budget"),
        pytest.param("rate", "two particle counts", BIG, id="rate-two particle counts"),
        pytest.param(
            "nbody", "exceeds the budget", {"particle_counts": [7]}, id="nbody-default grid at N=7"
        ),
    ],
)
def test_cli_refused_run_reports_error(tmp_path, capsys, command, fragment, raw):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


@pytest.mark.parametrize(
    "fock",
    [
        pytest.param({"sites": 16}, id="C(29,16) basis states"),
        # the base lattice fits; the swept one is refused before the base battery runs
        pytest.param({"cutoff": 60, "cutoff_step": 6}, id="swept cutoff"),
    ],
)
def test_cli_fock_check_refuses_an_oversized_lattice_before_allocating(tmp_path, capsys, fock):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"fock": fock}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["fock-check", "--config", str(path), "--out", str(out), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the budget" in err
    assert not (out / "fock_check.json").exists()
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
    ],
)
def test_cli_fock_check_refuses_vacuous_settings(tmp_path, capsys, fock, fragment):
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


@pytest.mark.parametrize(
    "command, change, fragment",
    [
        pytest.param("nbody", {"particle_counts": []}, "particle_counts", id="nbody-no particle count"),
        pytest.param("rate", {"particle_counts": [2, 2]}, "particle_counts", id="rate-one distinct count"),
        pytest.param("nbody", {"particle_counts": [2, 2]}, "particle_counts", id="nbody-repeated count"),
        pytest.param("rate", {"particle_counts": [2, 2, 3]}, "particle_counts", id="rate-repeated count"),
        pytest.param("bogoliubov", {"particle_counts": [3, 2, 3]}, "particle_counts", id="bogoliubov-repeated count"),
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
    ],
)
def test_cli_refuses_vacuous_settings(tmp_path, capsys, command, change, fragment):
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
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not any(out.iterdir())
