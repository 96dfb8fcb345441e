"""Experiment harness: configuration, convergence runs, fits, cross-checks.

Everything an experiment produces is derived from one ExperimentConfig and is
bitwise reproducible: no timestamps, fixed summation orders that BLAS does
not split by its thread count, and the N-body step's workers split it into
disjoint slabs and column blocks, each computed alike by whichever worker
takes it, so no output depends on how many workers there are.
Each check behind a subcommand returns its Report and its output files as a
dict from file name to text; it writes nothing itself.  A convergence run's
files are a CSV of per-(N, t) records and a JSON manifest carrying the config
(in the layout ``from_dict`` reads), its hash, the verdict thresholds
(``THRESHOLDS``, fixed in code), library versions, the rate fits and the
run's report.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bogoliubov as bg
from . import combinatorics as comb_mod
from . import fock as fk
from . import hartree as ha
from . import nbody as nb
from .grid import CapacityError, GridSpec, PotentialSpec, gaussian_packet, l2_norm, sample_potential, step_schedule


class ConfigError(ValueError):
    pass


def _named(key: str, check, /, *args, **kwargs):
    """``check(*args, **kwargs)``, with a refusal re-raised as the refusal of config ``key``.

    A ``CapacityError`` stays one, so the run still exits as refused; any
    other ``ValueError`` becomes a ``ConfigError``.
    """
    try:
        return check(*args, **kwargs)
    except CapacityError as exc:
        raise CapacityError(f"{key}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _refuse_list(key: str, values, least=None) -> None:
    """Refuse the listed setting ``key`` when it is empty, repeats a value, or holds one below ``least``."""
    values = list(values)
    if not values:
        raise ConfigError(f"{key} is empty")
    if len(set(values)) < len(values):
        raise ConfigError(f"{key} {values} repeats a value")
    if least is not None and min(values) < least:
        raise ConfigError(f"{key} {values} must all be at least {least}")


def _in_section(section: str, key: str, default):
    """A flat config field that the JSON config keeps at ``section.key``."""
    return field(default=default, metadata={"section": section, "key": key})


def _entries(raw, layout: dict, where: str):
    """(field name, JSON value, key path) for every key of the JSON object ``raw``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(layout)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    for key, value in raw.items():
        if isinstance(layout[key], dict):
            yield from _entries(value, layout[key], f"{where}.{key}")
        else:
            yield layout[key], value, f"{where}.{key}"


def _slot(layout: dict, f) -> tuple[dict, str]:
    """The JSON object of ``layout`` that holds field ``f``, and its key there."""
    if "section" in f.metadata:
        return layout.setdefault(f.metadata["section"], {}), f.metadata["key"]
    return layout, f.name


def _merge(default, raw, where: str):
    """The dataclass instance ``default`` with the JSON object ``raw`` merged over it."""
    layout = {}  # JSON key -> field name, or a JSON section -> its own such dict
    for f in fields(default):
        section, key = _slot(layout, f)
        section[key] = f.name
    changes = {
        name: _convert(getattr(default, name), value, path)
        for name, value, path in _entries(raw, layout, where)
    }
    return _named(where, replace, default, **changes)  # a section may check itself, as the potential does


# The JSON values each scalar field type accepts; bools are refused separately.
_JSON_TYPES = {int: int, float: (int, float)}


@dataclass(frozen=True, repr=False)
class _LongLiteral:
    """A JSON integer literal too long for ``int`` to read, kept as its length; no field takes it."""

    digits: int

    def __repr__(self) -> str:
        return f"an integer literal of {self.digits} digits"


def _read_int(literal: str):
    """``json.load``'s reading of an integer literal: the int, or a ``_LongLiteral`` past Python's digit limit."""
    try:
        return int(literal)
    except ValueError:
        return _LongLiteral(len(literal.lstrip("-")))


def _convert(default, value, where: str):
    """``value`` read as the type of the default value it replaces.

    Only lossless reads are allowed: an int field takes a JSON integer, a
    float field any finite JSON number within float range, and neither takes
    a bool.
    """
    if is_dataclass(default):
        return _merge(default, value, where)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list, got {value!r}")
        return tuple(_convert(default[0], v, where) for v in value)
    kind = type(default)
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(f"{where}: cannot read {value!r} as {kind.__name__}")
    try:
        value = kind(value)
    except OverflowError as exc:  # an integer beyond float range
        raise ConfigError(f"{where}: {value} is out of range for {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):  # NaN and Infinity are not JSON numbers
        raise ConfigError(f"{where}: {value} is not a finite number")
    return value


def _to_json(value):
    """``value`` as the JSON value that ``_merge`` and ``_convert`` read back."""
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            section, key = _slot(out, f)
            section[key] = _to_json(getattr(value, f.name))
        return out
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


@dataclass(frozen=True)
class InitialStateConfig:
    center: float = 8.0
    width: float = 1.0
    momentum: float = 0.0

    def build(self, grid: GridSpec) -> np.ndarray:
        return gaussian_packet(grid, self.center, self.width, self.momentum)


def _packet(key: str, state: InitialStateConfig, grid: GridSpec) -> np.ndarray:
    """``state.build(grid)``, refused by ``key.width`` unless it is a finite, nonzero packet."""
    if not state.width > 0.0:
        raise ConfigError(f"{key}.width must be positive, got {state.width}")
    try:
        with np.errstate(all="ignore"):
            phi = state.build(grid)
        if not np.all(np.isfinite(phi)):
            raise ValueError("the packet is not finite")
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(
            f"{key}.width {state.width} with center {state.center} and momentum "
            f"{state.momentum} gives no packet on the grid: {exc}"
        ) from exc
    return phi


@dataclass(frozen=True)
class FockSectionConfig:
    sites: int = 4
    length: float = 4.0
    cutoff: int = 13
    cutoff_step: int = 2
    dt: float = 1e-3
    coupling_values: tuple = (8, 16, 32, 64)
    residual_time: float = 0.5
    identity_times: tuple = (0.25, 0.5, 1.0)
    initial_state: InitialStateConfig = field(
        default_factory=lambda: InitialStateConfig(center=1.7, width=0.8)
    )

    def snapshot_times(self) -> tuple:
        """The battery's snapshot times: the identity times and the residual time, an equal time once."""
        return tuple(sorted(set(self.identity_times) | {self.residual_time}))

    def horizon(self) -> float:
        """End of the lattice flows: the last snapshot time, and at least 1."""
        return max(*self.snapshot_times(), 1.0)


@dataclass(frozen=True)
class Thresholds:
    """The limit of each verdict item, by item name; no config key moves one."""

    mass_drift: float = 1e-10
    energy_drift: float = 1e-6
    sym_defect: float = 1e-9
    boundary_mass: float = 1e-4
    leakage: float = 1e-6
    identity_match: float = 1e-4
    cutoff_agreement: float = 1e-4
    defect: float = 1e-6
    rate_band: tuple = (-1.35, -0.75)
    r_squared_min: float = 0.98
    parity_odd_mass: float = 1e-10
    moment_stability: float = 3.0
    residual_ratio_band: tuple = (1.6, 2.4)
    leading_value: float = 1e-12
    total_mass: float = 1.0 + 1e-10
    weighted_sum_spread: float = 10.0


# Every check reads this module attribute when it runs, so a test can swap it.
THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment; ``from_dict`` reads the JSON layout.

    The JSON config nests each field by its own name, except the flat fields
    declared with ``_in_section``, which it groups under ``grid``, ``time``
    and ``combinatorics``.
    """

    grid_points: int = _in_section("grid", "points", 16)
    grid_length: float = _in_section("grid", "length", 16.0)
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    initial_state: InitialStateConfig = field(default_factory=InitialStateConfig)
    particle_counts: tuple = (2, 3, 4, 5, 6)
    horizon: float = _in_section("time", "horizon", 1.0)
    dt: float = _in_section("time", "dt", 1e-3)
    nbody_dt: float = _in_section("time", "nbody_dt", 4e-3)
    sample_times: tuple = _in_section("time", "sample_times", (0.5, 1.0))
    fock: FockSectionConfig = field(default_factory=FockSectionConfig)
    combinatorics_counts: tuple = _in_section("combinatorics", "counts", (4, 16, 64, 256, 1024))
    krasikov_grid: tuple = _in_section("combinatorics", "krasikov_grid", (10, 50, 200))

    def grid(self) -> GridSpec:
        key = "grid.points" if self.grid_points < 1 else "grid.length"
        return _named(key, GridSpec, self.grid_points, self.grid_length)

    def fock_grid(self) -> GridSpec:
        key = "fock.sites" if self.fock.sites < 1 else "fock.length"
        return _named(key, GridSpec, self.fock.sites, self.fock.length)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        return _merge(ExperimentConfig(), raw, "config")

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh, parse_int=_read_int))

    def to_dict(self) -> dict:
        """The config in the JSON layout that ``from_dict`` reads."""
        return _to_json(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# records and fits


@dataclass
class RunRecord:
    N: int
    t: float
    trace_err: float
    hs_err: float
    e2_norm: float
    e_minus_e2_norm: float
    energy_drift: float
    sym_defect: float
    boundary_mass: float


RECORD_COLUMNS = tuple(f.name for f in fields(RunRecord))


def csv_table(header, rows) -> str:
    """CSV text of a header and rows: ints as written, every other value as ``repr(float(v))``."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(blob) -> str:
    """``blob`` as indented JSON with sorted keys and a final newline."""
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def records_csv(records) -> str:
    return csv_table(RECORD_COLUMNS, [astuple(r) for r in records])


def load_records(path) -> list[RunRecord]:
    """The records of ``records_csv`` text; a malformed file is a ``ValueError`` naming it."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != ",".join(RECORD_COLUMNS):
        raise ValueError(f"unexpected header in {path}")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(RECORD_COLUMNS):
            raise ValueError(f"row {ln!r} in {path} has {len(parts)} fields, not {len(RECORD_COLUMNS)}")
        out.append(RunRecord(int(parts[0]), *(float(p) for p in parts[1:])))
    return out


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_rate(points) -> RateFit:
    """Least-squares fit of ln(value) against ln(N).

    ``points`` is a sequence of (N, value) pairs with positive values.
    """
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a rate")
    if any(v <= 0 for _, v in pts):
        raise ValueError("rate fit needs positive values")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(coef[0]), float(coef[1]), r2, len(pts))


def records_for_fit(records, t, column="trace_err"):
    sel = [(r.N, getattr(r, column)) for r in records if abs(r.t - t) < 1e-9]
    return sorted(sel)


# ---------------------------------------------------------------------------
# verdicts

_STATUS_RANK = {"pass": 0, "inconclusive": 1, "fail": 2}


@dataclass
class CheckItem:
    name: str
    status: str  # pass | fail | inconclusive
    measured: float
    threshold: float
    details: dict = field(default_factory=dict)


def _check(name: str, values, threshold, ok=None) -> CheckItem:
    """A pass-or-fail item on the worst of ``values``, a scalar or a sequence.

    ``ok`` defaults to ``measured <= threshold``.  The worst value is taken
    with np.max, which, unlike max, carries a NaN through to a failed item.
    """
    measured = float(np.max(values))
    if ok is None:
        ok = measured <= threshold
    return CheckItem(name, "pass" if ok else "fail", measured, float(threshold))


@dataclass
class Report:
    """The verdict of one subcommand: its check items and their worst status."""

    items: list

    @property
    def status(self) -> str:
        return max((i.status for i in self.items), key=_STATUS_RANK.get, default="pass")

    def to_dict(self) -> dict:
        return {"status": self.status, "items": [asdict(i) for i in self.items]}


# ---------------------------------------------------------------------------
# convergence run


def _hartree_flow(config: ExperimentConfig):
    """Grid, potential samples, initial orbital and its Hartree trajectory."""
    grid = config.grid()
    _named("time.horizon over time.dt", ha.admit_trajectory, grid.points, config.horizon, config.dt)
    vsamp = sample_potential(config.potential, grid)
    phi0 = _packet("initial_state", config.initial_state, grid)
    return grid, vsamp, phi0, ha.evolve_hartree(phi0, vsamp, grid, config.horizon, config.dt)


@dataclass
class ConvergenceRun:
    config: ExperimentConfig
    records: list
    mass_drifts: list  # |Tr gamma - 1| of each record
    fits: dict


def _sample_times(config: ExperimentConfig) -> tuple:
    """The sample times in ascending order, refused when empty, repeated, or not each on its own step."""
    _refuse_list("time.sample_times", config.sample_times)
    _named("time.horizon on the time.dt steps", step_schedule, config.horizon, config.dt)
    _named("time.sample_times on the time.dt steps", step_schedule, config.horizon, config.dt, config.sample_times)
    return tuple(sorted(config.sample_times))


def run_convergence(config: ExperimentConfig, quiet: bool = True) -> ConvergenceRun:
    """Full pipeline: Hartree, Bogoliubov correction, exact N-body sweep."""
    sample_times = _sample_times(config)
    _refuse_list("particle_counts", config.particle_counts, 1)
    config.grid()  # a bad grid is refused by its key, not as a sweep over its points
    for n in config.particle_counts:
        _named(f"particle_counts {list(config.particle_counts)}", nb.admit_sweep, config.grid_points, n)
    for start, end in zip((0.0,) + sample_times, sample_times):
        _named("time.sample_times on the time.nbody_dt steps", step_schedule, end - start, config.nbody_dt)

    grid, vsamp, phi0, traj = _hartree_flow(config)
    _, pair_snaps = bg.evolve_pair(grid, vsamp, traj, config.horizon, config.dt, sample_times)

    records, mass_drifts = [], []
    for n in config.particle_counts:
        if not quiet:
            print(f"[nbody] N={n}", file=sys.stderr)
        state = nb.product_state(phi0, n, grid)
        e0 = nb.nbody_energy(state, vsamp, nb.reduce_marginal(state, 1))
        prev_t = 0.0
        for ts in sample_times:
            nb.evolve_nbody(state, vsamp, ts - prev_t, config.nbody_dt)
            prev_t = ts
            gamma = nb.reduce_marginal(state, 1)
            phi_t = traj.state_at(ts)
            proj = nb.projection_marginal(phi_t, grid, ts)
            corr = bg.correction_kernel(pair_snaps[ts], phi0, phi_t, n)
            error = nb.MarginalDensity(grid, 1, gamma.matrix - proj.matrix, ts)
            records.append(RunRecord(
                N=n,
                t=ts,
                trace_err=nb.trace_distance(gamma, proj),
                hs_err=nb.hs_distance(gamma, proj),
                e2_norm=corr.norm(),
                e_minus_e2_norm=nb.hs_distance(error, corr),
                energy_drift=abs(nb.nbody_energy(state, vsamp, gamma) - e0),
                sym_defect=nb.symmetry_defect(state),
                boundary_mass=nb.marginal_boundary_mass(gamma),
            ))
            mass_drifts.append(abs(gamma.trace() - 1.0))

    fits = {}
    if len(config.particle_counts) >= 2:
        for ts in sample_times:
            fit = fit_rate(records_for_fit(records, ts))
            fits[repr(float(ts))] = asdict(fit)
    return ConvergenceRun(config, records, mass_drifts, fits)


def library_versions() -> dict:
    import scipy

    from . import __version__

    return {
        "python": ".".join(str(p) for p in sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "meanfieldlab": __version__,
    }


def manifest_json(run: ConvergenceRun, report: Report) -> str:
    return json_text({
        "config": run.config.to_dict(),
        "config_hash": run.config.config_hash(),
        "thresholds": _to_json(THRESHOLDS),
        "versions": library_versions(),
        "n_records": len(run.records),
        "report": report.to_dict(),
        "rate_fits": run.fits,
    })


def convergence_check(
    config: ExperimentConfig, fit: bool, quiet: bool = True
) -> tuple[Report, dict]:
    """The N-body sweep, its diagnostics as items, and with ``fit`` the rate band.

    A diagnostic that does not pass makes the run inconclusive rather than failed.
    The files are ``records.csv`` and ``manifest.json``.
    """
    if fit and len(config.particle_counts) < 2:
        counts = list(config.particle_counts)
        raise ConfigError(f"a rate fit needs at least two particle counts, got particle_counts {counts}")
    run = run_convergence(config, quiet)
    tol = THRESHOLDS
    items = [
        _check("mass_drift", run.mass_drifts, tol.mass_drift),
        _check("sym_defect", [r.sym_defect for r in run.records], tol.sym_defect),
        _check("boundary_mass", [r.boundary_mass for r in run.records], tol.boundary_mass),
    ]
    for item in items:
        if item.status != "pass":
            item.status = "inconclusive"
    if fit:
        final = run.fits[repr(float(max(config.sample_times)))]
        lo, hi = tol.rate_band
        slope = _check("slope", final["slope"], hi, ok=lo <= final["slope"] <= hi)
        slope.details = {"band": [lo, hi]}
        items += [slope, _check("r_squared", final["r_squared"], tol.r_squared_min,
                                ok=final["r_squared"] >= tol.r_squared_min)]
    report = Report(items)
    return report, {"records.csv": records_csv(run.records), "manifest.json": manifest_json(run, report)}


def hartree_check(config: ExperimentConfig) -> tuple[Report, dict]:
    """Mass and energy drift of the Hartree flow, and its monitor table as ``hartree.csv``."""
    _named("time.horizon on the time.dt steps", step_schedule, config.horizon, config.dt)
    grid, vsamp, _, traj = _hartree_flow(config)
    e0 = ha.hartree_energy(traj.states[0], vsamp, grid)
    rows = []
    stride = max(1, len(traj.times) // 64)
    for i in range(0, len(traj.times), stride):
        phi = traj.states[i]
        md = abs(ha.mass(phi, grid) - 1.0)
        ed = abs(ha.hartree_energy(phi, vsamp, grid) - e0)
        rows.append((traj.times[i], md, ed, ha.boundary_mass(phi, grid)))
    _, mass_drifts, energy_drifts, _ = zip(*rows)
    tol = THRESHOLDS
    report = Report([
        _check("mass_drift", mass_drifts, tol.mass_drift),
        _check("energy_drift", energy_drifts, tol.energy_drift * max(abs(e0), 1.0)),
    ])
    return report, {"hartree.csv": csv_table(("t", "mass_drift", "energy_drift", "boundary_mass"), rows)}


def bogoliubov_check(config: ExperimentConfig) -> tuple[Report, dict]:
    """Pair-relation defect of the kernel flow, and ``bogoliubov.csv``: the
    defects, a blank line, then the correction norms."""
    _sample_times(config)
    _refuse_list("particle_counts", config.particle_counts, 1)
    grid, vsamp, phi0, traj = _hartree_flow(config)
    _, snaps = bg.evolve_pair(grid, vsamp, traj, config.horizon, config.dt, config.sample_times)
    defects, norms = [], []
    for ts in sorted(snaps):
        d1, d2 = bg.symplectic_defect(snaps[ts])
        defects.append((ts, bg.depletion(snaps[ts]), d1, d2))
    for n in config.particle_counts:
        for ts in sorted(snaps):
            corr = bg.correction_kernel(snaps[ts], phi0, traj.state_at(ts), n)
            norms.append((n, ts, corr.norm()))
    report = Report([_check("pair_relation_defect", [row[2:] for row in defects], THRESHOLDS.defect)])
    table = (csv_table(("t", "depletion", "identity_defect", "symmetry_defect"), defects) + "\n"
             + csv_table(("N", "t", "correction_norm"), norms))
    return report, {"bogoliubov.csv": table}


def laguerre_check(config: ExperimentConfig) -> tuple[Report, dict]:
    """Sector-overlap tables against their bounds, and the tables as ``laguerre.csv``.

    Items: the leading value against its closed form (relative gap), the
    total squared mass, the Krasikov envelope (worst log margin, which must
    stay strictly negative), and the spread of the scaled weighted sums.
    """
    for key, counts, least in (
        ("combinatorics.counts", config.combinatorics_counts, 1),
        ("combinatorics.krasikov_grid", config.krasikov_grid, 2),  # no envelope order below 2
    ):
        _refuse_list(key, counts, least)
        for n in counts:
            _named(f"{key} {list(counts)}", comb_mod.admit_overlaps, n)
    rows, lead_gaps = [], []
    for n in config.combinatorics_counts:
        values = comb_mod.sector_overlaps(n)
        weighted = comb_mod.weighted_sector_sum(values)
        first = values[0]
        # summed in order, not pairwise (np.sum): laguerre.csv keeps its last bits
        sum_sq = float(np.cumsum(values**2)[-1])
        rows.append((n, first, sum_sq, weighted, float(np.sqrt(n) * weighted)))
        lead_gaps.append(abs(first - np.exp(-comb_mod.log_coherent_norm(n))) / first)
    _, _, masses, _, scaled = zip(*rows)
    margin = np.max([np.max(np.subtract(*comb_mod.krasikov_check(comb_mod.sector_overlaps(n))))
                     for n in config.krasikov_grid])
    report = Report([
        _check("leading_value", lead_gaps, THRESHOLDS.leading_value),
        _check("total_mass", masses, THRESHOLDS.total_mass),
        _check("envelope_log_margin", margin, 0.0, ok=margin < 0.0),
        _check("weighted_sum_spread", np.max(scaled) / np.min(scaled), THRESHOLDS.weighted_sum_spread),
    ])
    header = ("n", "first_overlap", "sum_sq", "weighted_sum", "scaled_weighted_sum")
    return report, {"laguerre.csv": csv_table(header, rows)}


# ---------------------------------------------------------------------------
# Fock cross-validation


class LatticeBattery(NamedTuple):
    """What the lattice engine gives the cross checks at one cutoff."""

    leakage: float  # worst top-sector mass over every evolution of the battery
    parity_odd: float  # worst odd-sector mass of the quadratic flow
    identity_moments: dict  # identity time -> <N> of the quadratic flow
    column_errors: dict  # site y -> L2 distance of the back-evolved a_y vacuum's one-particle values to v[y]
    moments: dict  # coupling value -> <N> of the full flow at the horizon
    residuals: dict  # coupling value -> the j = 1 residual aggregate


def _lattice_battery(
    gens: fk.GeneratorSet, traj: ha.HartreeTrajectory, fsec: FockSectionConfig, couplings, sites, kernel_v
) -> LatticeBattery:
    """Every lattice flow the cross checks need, on one generator set.

    One quadratic evolution (coupling math.inf) serves the depletion
    identity, the parity monitor and the kernel columns (the back-evolved a_y
    of ``sites``, each against its row of the v kernel ``kernel_v``), and its
    site backs serve every residual; each coupling value gets a single full
    evolution whose final state carries the number moment and whose
    residual-time snapshot seeds the residual.
    """
    space = gens.space
    horizon = fsec.horizon()
    quad = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, horizon, fsec.dt, math.inf, fsec.snapshot_times())
    # the kernel columns from the last identity time and the residual's site
    # backs from the residual time run as one block below the earlier of the two
    t_k = max(fsec.identity_times)
    starts = [(quad.snapshots[t_k], t_k, sites), (quad.snapshots[fsec.residual_time], fsec.residual_time, None)]
    (col_backs, quad_backs), back_top = fk.site_backs(gens, traj, starts, fsec.dt, math.inf)
    columns = fk.one_particle_values(col_backs)
    column_errors = {site: l2_norm(columns[:, k] - kernel_v[site], space.grid) for k, site in enumerate(sites)}
    tops = [quad.top_mass, back_top]
    moments, residuals = {}, {}
    for n in couplings:
        full = fk.evolve_fock(gens, fk.vacuum(space), traj, 0.0, horizon, fsec.dt, n, (fsec.residual_time,))
        moments[n] = fk.number_moment(full.state, 1)
        (full_backs,), fb_top = fk.site_backs(
            gens, traj, [(full.snapshots[fsec.residual_time], fsec.residual_time, None)], fsec.dt, n
        )
        residuals[n] = fk.residual_aggregates(full_backs, quad_backs)[1]
        tops += [full.top_mass, fb_top]
    return LatticeBattery(
        leakage=np.max(tops),
        parity_odd=np.max([fk.odd_sector_mass(s) for s in quad.snapshots.values()]),
        identity_moments={ts: fk.number_moment(quad.snapshots[ts], 1) for ts in fsec.identity_times},
        column_errors=column_errors,
        moments=moments,
        residuals=residuals,
    )


def cross_validate(config: ExperimentConfig, quiet: bool = True) -> tuple[Report, dict]:
    """Engine-versus-kernel consistency battery with a cutoff sweep.

    The Hartree trajectory and the pair kernels are computed once and serve
    both cutoffs.  The full battery runs at the configured cutoff.  The sweep
    rerun at cutoff + cutoff_step keeps the most exposed slice only: the
    smallest coupling value (strongest cubic and quartic parts) and the worst
    kernel column.  Each item carries a base/swept scalar pair; disagreement
    beyond the cutoff_agreement threshold marks the item inconclusive rather
    than failed.  Every setting the README's refusal table names for
    ``fock-check`` is refused up front, before any flow, naming its config
    key.  The file is ``fock_check.json``, the report itself.
    """
    tol = THRESHOLDS
    fsec = config.fock
    for key in ("sites", "cutoff", "cutoff_step"):
        if getattr(fsec, key) < 1:
            raise ConfigError(f"fock.{key} must be at least 1, got {getattr(fsec, key)}")
    _refuse_list("fock.coupling_values", fsec.coupling_values, 1)
    _refuse_list("fock.identity_times", fsec.identity_times)
    counts = sorted(fsec.coupling_values)
    pairs = [(a, b) for a, b in zip(counts, counts[1:]) if b == 2 * a]
    if not pairs:
        raise ConfigError(
            f"fock.coupling_values {list(fsec.coupling_values)} need two neighbouring "
            "values a and 2a for a residual ratio"
        )
    _named("fock.dt (against the lattice horizon)", step_schedule, fsec.horizon(), fsec.dt)
    # the backward flows start at the residual time and the last identity time
    _named("fock.residual_time", step_schedule, fsec.residual_time, fsec.dt)
    _named("fock.identity_times", step_schedule, max(fsec.identity_times), fsec.dt)
    _named(
        "fock.identity_times and fock.residual_time", step_schedule, fsec.horizon(), fsec.dt, fsec.snapshot_times()
    )
    # below the earlier of the two, the backward flows share their steps
    gap = abs(max(fsec.identity_times) - fsec.residual_time)
    if gap:
        _named("fock.residual_time (against the last identity time)", step_schedule, gap, fsec.dt)
    swept_cutoff = fsec.cutoff + fsec.cutoff_step
    _named("fock.sites at fock.cutoff + fock.cutoff_step", fk.admit_lattice, fsec.sites, swept_cutoff)

    grid = config.fock_grid()
    _named("fock.dt (against the lattice horizon)", ha.admit_trajectory, grid.points, fsec.horizon(), fsec.dt)
    vsamp = sample_potential(config.potential, grid)
    phi0 = _packet("fock.initial_state", fsec.initial_state, grid)
    traj = ha.evolve_hartree(phi0, vsamp, grid, fsec.horizon(), fsec.dt)
    _, pair_snaps = bg.evolve_pair(grid, vsamp, traj, fsec.horizon(), fsec.dt, fsec.identity_times)
    depletion = {ts: bg.depletion(pair_snaps[ts]) for ts in fsec.identity_times}
    kernel_v = pair_snaps[max(fsec.identity_times)].v

    def battery(cutoff, couplings, sites):
        gens = fk.GeneratorSet(fk.LatticeFockSpace(grid, cutoff), vsamp)
        return _lattice_battery(gens, traj, fsec, couplings, sites, kernel_v)

    lo = battery(fsec.cutoff, fsec.coupling_values, range(grid.points))
    if not quiet:
        print("[fock-check] base cutoff done", file=sys.stderr)
    n_probe = min(fsec.coupling_values)
    errs = lo.column_errors
    worst_site = list(errs)[np.argmax(list(errs.values()))]  # a NaN column counts as the worst
    hi = battery(swept_cutoff, (n_probe,), (worst_site,))

    items: list[CheckItem] = []

    def add(name, values, threshold, swept_pair, ok=None):
        item = _check(name, values, threshold, ok)
        a, b = swept_pair
        item.details = {"base": a, "swept": b}
        if not abs(a - b) <= tol.cutoff_agreement * (1.0 + abs(a)):
            item.status = "inconclusive"
        items.append(item)

    # truncation leakage across every evolution involved
    add("leakage", lo.leakage, tol.leakage, (lo.leakage, hi.leakage))

    # depletion identity at each requested time
    for ts in fsec.identity_times:
        gap = abs(depletion[ts] - lo.identity_moments[ts])
        thr = tol.identity_match * (1.0 + depletion[ts])
        swept = (lo.identity_moments[ts], hi.identity_moments[ts])
        add(f"depletion_identity_t{ts}", gap, thr, swept)

    # v-kernel columns reproduced by the engine
    col_pair = (errs[worst_site], hi.column_errors[worst_site])
    add("kernel_columns", list(errs.values()), tol.identity_match, col_pair)

    # parity conservation of the quadratic flow
    add("parity_odd_mass", lo.parity_odd, tol.parity_odd_mass, (lo.parity_odd, hi.parity_odd))

    # number moments of the full flow stay order one across coupling values
    moments = [lo.moments[n] for n in fsec.coupling_values]
    ratio = np.max(moments) / np.min(moments)
    add("moment_stability", ratio, tol.moment_stability, (lo.moments[n_probe], hi.moments[n_probe]))

    # residual aggregates halve when N doubles
    res_pair = (lo.residuals[n_probe], hi.residuals[n_probe])
    r_min, r_max = tol.residual_ratio_band
    for a, b in pairs:
        r_lo = lo.residuals[a] / lo.residuals[b]
        add(f"residual_ratio_{a}_to_{b}", r_lo, r_max, res_pair, ok=r_min <= r_lo <= r_max)
    report = Report(items)
    return report, {"fock_check.json": json_text(report.to_dict())}
