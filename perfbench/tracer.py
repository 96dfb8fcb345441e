"""Outside-in span tracing for one traced CLI invocation.

The program itself carries no instrumentation.  ``Tracer.install`` replaces
module attributes of ``meanfieldlab`` (public functions, a few methods and
the ``sfft`` handle that ``meanfieldlab.nbody`` calls) with wrappers that
record one span per call; ``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as (name, start, end, parent) and written out by
the caller when the run ends.  A span's self time is its duration minus the
part of it covered by its child spans, so the self times of all spans under
one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

NBODY_COUNTS = (2, 3, 4, 5, 6)

# Per-layer metrics, in the order BENCHMARK.json lists them, with their units.
LAYER_METRICS = {
    "cli.main.self_s": "s",
    "harness.run_convergence.self_s": "s",
    "harness.cross_validate.self_s": "s",
    "grid.potential_matrix.calls": "count",
    "hartree.evolve_hartree.self_s": "s",
    "hartree.interpolate.calls": "count",
    "bogoliubov.evolve_pair.self_s": "s",
    "bogoliubov.coupling_kernels.calls": "count",
    "bogoliubov.coupling_kernels.self_s": "s",
    **{f"nbody.evolve_nbody.self_s.N{n}": "s" for n in NBODY_COUNTS},
    "nbody.fft.calls": "count",
    "nbody.fft.self_s": "s",
    "nbody.fft.bytes_computed": "B",
    "nbody.interaction_tensor.calls": "count",
    "nbody.interaction_tensor.self_s": "s",
    "nbody.nbody_energy.self_s": "s",
    "nbody.reduce_marginal.self_s": "s",
    "nbody.symmetry_defect.self_s": "s",
    "nbody.trace_distance.self_s": "s",
    **{f"nbody.state_bytes.N{n}": "B" for n in NBODY_COUNTS},
    "fock.matrix.calls": "count",
    "fock.matrix.self_s": "s",
    "fock.matrix.bytes_computed": "B",
    "fock.expm_multiply.calls": "count",
    "fock.expm_multiply.self_s": "s",
    "fock.evolve_fock.calls": "count",
    "fock.evolve_fock.steps": "count",
    "fock.site_backs.total_s": "s",
    "fock.top_sector_mass.self_s": "s",
    "fock.space_build_s": "s",
    "fock.generator_build_s": "s",
    "trace_overhead_frac": "frac",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


class Recorder:
    """In-memory span stack; ``open``/``close`` bracket one call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def traced(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments.

        ``after(result, *args, **kwargs)`` runs outside the span and records
        work counters for the call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counters": self.counters,
        }


class FFTHandle:
    """Stand-in for the ``scipy.fft`` module inside ``meanfieldlab.nbody``,
    with ``fftn`` and ``ifftn`` passed through ``wrap``."""

    def __init__(self, real, wrap):
        self._real = real
        self.fftn = wrap(real.fftn)
        self.ifftn = wrap(real.ifftn)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _bank_bytes(gens) -> int:
    """Bytes of the coefficient bank one ``GeneratorSet.matrix`` call reads.

    The bank is private, and a planned change stores it sparse; both forms
    are counted so the metric survives that change.
    """
    bank = getattr(gens, "_bank", None)
    if bank is None:
        return 0
    if hasattr(bank, "indptr"):
        return bank.data.nbytes + bank.indices.nbytes + bank.indptr.nbytes
    return bank.nbytes


class Patches:
    """Attributes replaced for a while; ``uninstall`` puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    """Installs span wrappers on ``meanfieldlab`` and restores them after."""

    def __init__(self):
        super().__init__()
        self.recorder = Recorder()

    def _wrap(self, owner, attr, name, after=None):
        self._patch(owner, attr, self.recorder.traced(name, getattr(owner, attr), after))

    def install(self):
        from meanfieldlab import bogoliubov, fock, grid, harness, hartree, nbody

        rec = self.recorder
        self._wrap(harness, "run_convergence", "harness.run_convergence")
        self._wrap(harness, "cross_validate", "harness.cross_validate")
        # potential_matrix and coupling_kernels are imported by name into the
        # modules that call them, so each binding is wrapped.
        for module in (grid, bogoliubov, nbody, fock):
            self._wrap(module, "potential_matrix", "grid.potential_matrix")
        self._wrap(hartree, "evolve_hartree", "hartree.evolve_hartree")
        self._wrap(hartree.HartreeTrajectory, "interpolate", "hartree.interpolate")
        self._wrap(bogoliubov, "evolve_pair", "bogoliubov.evolve_pair")
        for module in (bogoliubov, fock):
            self._wrap(module, "coupling_kernels", "bogoliubov.coupling_kernels")

        self._wrap(
            nbody,
            "product_state",
            "nbody.product_state",
            after=lambda state, *a, **k: rec.peak(f"nbody.state_bytes.N{state.n}", state.psi.nbytes),
        )
        self._wrap(nbody, "evolve_nbody", lambda state, *a, **k: f"nbody.evolve_nbody.N{state.n}")
        def count_bytes(result, *args, **kwargs):
            # one complex128 read and one complex128 write per element
            rec.count("nbody.fft.bytes_computed", 2 * 16 * result.size)

        self._patch(nbody, "sfft", FFTHandle(nbody.sfft, lambda fn: rec.traced("nbody.fft", fn, count_bytes)))
        for attr in ("interaction_tensor", "nbody_energy", "reduce_marginal", "symmetry_defect", "trace_distance"):
            self._wrap(nbody, attr, f"nbody.{attr}")

        self._wrap(fock.LatticeFockSpace, "__init__", "fock.LatticeFockSpace")
        self._wrap(fock.GeneratorSet, "__init__", "fock.GeneratorSet")
        self._wrap(
            fock.GeneratorSet,
            "matrix",
            "fock.matrix",
            after=lambda _, gens, *a, **k: rec.count("fock.matrix.bytes_computed", _bank_bytes(gens)),
        )
        self._wrap(fock, "expm_multiply", "fock.expm_multiply")
        evolve_args = inspect.signature(fock.evolve_fock).bind

        def count_steps(_, *args, **kwargs):
            bound = evolve_args(*args, **kwargs).arguments
            rec.count("fock.evolve_fock.steps", int(round(abs(bound["t1"] - bound["t0"]) / bound["dt"])))

        self._wrap(fock, "evolve_fock", "fock.evolve_fock", after=count_steps)
        self._wrap(fock, "site_backs", "fock.site_backs")
        self._wrap(fock, "top_sector_mass", "fock.top_sector_mass")


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead_frac``, from one trace."""
    selfs = self_times(recorder.spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for span, own in zip(recorder.spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        total_s[span.name] = total_s.get(span.name, 0.0) + (span.end - span.start)

    out: dict[str, float] = {}
    for key in LAYER_METRICS:
        if key == "trace_overhead_frac":
            continue
        if key in ("fock.space_build_s", "fock.generator_build_s"):
            span = "fock.LatticeFockSpace" if key == "fock.space_build_s" else "fock.GeneratorSet"
            out[key] = total_s.get(span, 0.0)
        elif key.startswith(("nbody.state_bytes.", "fock.evolve_fock.steps")) or key.endswith(".bytes_computed"):
            out[key] = recorder.counters.get(key, 0)
        elif key.startswith("nbody.evolve_nbody.self_s."):
            out[key] = self_s.get("nbody.evolve_nbody." + key.rsplit(".", 1)[1], 0.0)
        else:
            span, kind = key.rsplit(".", 1)
            out[key] = {"calls": calls, "self_s": self_s, "total_s": total_s}[kind].get(span, 0)
    return out


def module_self_times(recorder: Recorder) -> dict[str, float]:
    """Self time summed per module (the first component of a span name)."""
    out: dict[str, float] = {}
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        module = span.name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + own
    return out
