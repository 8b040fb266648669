"""Spans and counters recorded from outside kgfield.

The traced run wraps public functions of kgfield's modules (and the
verify registry's check functions) in spans, and wraps the numpy.fft and
scipy.fft entry points in a counter of calls and transformed points.
Nothing under src/ is changed: the wrappers replace module and class
attributes in the traced process only, after kgfield has been imported.

A span is (name, start, end, parent, fft_calls, fft_points); the FFT
figures are the calls made while the span was open.  A function that
recurses into itself under the same span name is recorded once.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
import tracemalloc

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _arg(args, kwargs, pos, key, default):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


# span name -> (module, attribute path, namer or None).  A namer picks the
# span name from the call's arguments.
TARGETS = {
    "core.lattice_build": ("kgfield.core", "MomentumLattice.__init__", None),
    "core.psi_grid": ("kgfield.core", "LatticeField.psi_grid", None),
    "core.modes_to_grid": (
        "kgfield.core", "MomentumLattice.modes_to_grid",
        lambda a, k: f"core.modes_to_grid.pad{_arg(a, k, 2, 'pad', 1)}"),
    "currents.current_Ja": ("kgfield.currents", "current_Ja", None),
    "currents.current_calJa": ("kgfield.currents", "current_calJa", None),
    "currents.continuity": (
        "kgfield.currents", "continuity_residual",
        lambda a, k: "currents.continuity_"
        + str(_arg(a, k, 2, "which", "J_a")).replace("_", "")),
    "currents.total_probability": ("kgfield.currents", "total_probability",
                                   None),
    "inner.inner_a": ("kgfield.inner", "inner_a", None),
    "inner.inner_a_split": ("kgfield.inner", "inner_a_split", None),
    "localization.localized_state": ("kgfield.localization",
                                     "localized_state", None),
    "localization.besselK_profile": ("kgfield.localization",
                                     "besselK_profile", None),
    "localization.bessel_momentum_route": (
        "kgfield.localization", "besselK_profile_momentum_route", None),
    "em.build_Dq": ("kgfield.em", "build_Dq", None),
    "em.gauge_residual": ("kgfield.em", "em_gauge_residual", None),
    "amplitudes.invariance_check": ("kgfield.amplitudes", "invariance_check",
                                    None),
    "limits.limit_deviation": ("kgfield.limits", "limit_deviation", None),
    "reporting.write_csv": ("kgfield.reporting", "write_csv", None),
    "stateio.load_state": ("kgfield.stateio", "load_state", None),
}

VERIFY_SUITES = ("core", "inner", "amplitudes", "currents", "localization",
                 "gauge", "limits", "em")

# per-layer metric -> span name; the value is the mean time of one call
PER_CALL_S = {
    "core.lattice_build_s": "core.lattice_build",
    "core.psi_grid_s": "core.psi_grid",
    "localization.localized_state_s": "localization.localized_state",
    "core.modes_to_grid_s": "core.modes_to_grid.pad2",
    "currents.current_Ja_s": "currents.current_Ja",
    "currents.current_calJa_s": "currents.current_calJa",
    "currents.continuity_Ja_s": "currents.continuity_Ja",
    "currents.continuity_calJa_s": "currents.continuity_calJa",
    "currents.total_probability_s": "currents.total_probability",
    "inner.inner_a_s": "inner.inner_a",
    "inner.inner_a_split_s": "inner.inner_a_split",
    "localization.besselK_profile_s": "localization.besselK_profile",
    "localization.bessel_momentum_route_s":
        "localization.bessel_momentum_route",
    "em.build_Dq_s": "em.build_Dq",
    "em.gauge_residual_s": "em.gauge_residual",
    "amplitudes.invariance_check_s": "amplitudes.invariance_check",
    "limits.limit_deviation_s": "limits.limit_deviation",
    "reporting.write_csv_s": "reporting.write_csv",
    "stateio.load_state_s": "stateio.load_state",
}
# per-layer metric -> span name; the value is the time summed over one op
PER_OP_S = {f"verify.{s}_s": f"verify.{s}" for s in VERIFY_SUITES}
# per-layer metric -> span name; FFT calls of one call of the function
PER_CALL_FFTS = {
    "currents.continuity_Ja.fft_calls": "currents.continuity_Ja",
    "currents.continuity_calJa.fft_calls": "currents.continuity_calJa",
}
CLI_COMMANDS = ("version", "scenario_packet", "scenario_two_modes",
                "scenario_localized", "sweep_a", "sweep_mass",
                "sweep_quadrature", "state_inspect")
IMPORTS = ("kgfield.cli", "scipy.integrate", "jsonschema", "mpmath", "sympy")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._open_names: set[str] = set()
        self.fft_calls = 0
        self.fft_points = 0
        self._fft_depth = 0
        self.lattices: list[tuple] = []     # (box_lengths, nodes) built
        self.masses: list[float] = []       # masses passed to omega()

    # ---------------------------------------------------------- spans

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str):
        if name in self._open_names:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.fft_calls, self.fft_points])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open_names.add(name)
        return idx

    def _close(self, idx) -> None:
        if idx is None:
            return
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = self.fft_calls - rec[4]
        rec[5] = self.fft_points - rec[5]
        self._stack.pop()
        self._open_names.discard(rec[0])

    def reset(self) -> None:
        """Forget the spans so far (the warm-up); keep the wrappers and
        the lattices seen, which set-up may have built."""
        self.spans = []

    def wrap(self, fn, name, namer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            idx = self._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every target in every loaded kgfield module, and the FFTs."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "kgfield" or n.startswith("kgfield.")]
        for name, (modname, path, namer) in TARGETS.items():
            mod = importlib.import_module(modname)
            owner, attr = _resolve(mod, path)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, namer)
            if owner is mod:
                for m in loaded:    # names imported with "from x import f"
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapped)
            else:
                setattr(owner, attr, wrapped)
        self._record_lattices()
        self._wrap_verify_registry()
        self._wrap_ffts()

    def _record_lattices(self) -> None:
        core = importlib.import_module("kgfield.core")
        cls = core.MomentumLattice
        init, omega = cls.__init__, cls.omega

        def recording_init(lat, box_lengths, nodes):
            init(lat, box_lengths, nodes)
            self.lattices.append((lat.box_lengths, lat.nodes))

        def recording_omega(lat, mass):
            self.masses.append(float(mass))
            return omega(lat, mass)

        cls.__init__ = recording_init
        cls.omega = recording_omega

    def _wrap_verify_registry(self) -> None:
        if "kgfield.verify" not in sys.modules:
            return
        reg = sys.modules["kgfield.verify"]._REGISTRY
        for i, (suite, name, at_least, fn) in enumerate(reg):
            check = self.wrap(fn, f"verify.check.{suite}:{name}")
            reg[i] = (suite, name, at_least,
                      self.wrap(check, f"verify.{suite}"))

    def _wrap_ffts(self) -> None:
        import numpy.fft
        modules = [numpy.fft]
        try:
            import scipy.fft
            modules.append(scipy.fft)
        except ImportError:
            pass
        for mod in modules:
            for name in FFT_NAMES:
                if hasattr(mod, name):
                    setattr(mod, name, self._count_fft(getattr(mod, name)))

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._fft_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._fft_depth -= 1
            if self._fft_depth == 0:
                self.fft_calls += 1
                self.fft_points += int(out.size)
            return out
        return counted

    # ---------------------------------------------------------- memory

    def lattice_alloc_mb(self) -> float:
        """tracemalloc peak of rebuilding the largest lattice seen, and ω.

        Done after the timed ops, untimed, so that tracemalloc's overhead
        stays out of every span.
        """
        if not self.lattices:
            return 0.0
        core = importlib.import_module("kgfield.core")
        box, nodes = max(self.lattices, key=lambda bn: _prod(bn[1]))
        mass = self.masses[0] if self.masses else 1.0
        kept = (len(self.spans), list(self.lattices), list(self.masses))
        tracemalloc.start()
        try:
            lat = core.MomentumLattice(box, nodes)
            lat.omega(mass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del lat
        del self.spans[kept[0]:]        # the rebuild is not part of any op
        self.lattices, self.masses = kept[1], kept[2]
        return peak / 2 ** 20


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.idx = tracer, name, None

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def _resolve(mod, path: str):
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


# ------------------------------------------------------------ aggregation

def layer_stats(spans) -> dict:
    """name -> {time, calls, fft_calls, fft_points} summed over spans."""
    out: dict[str, dict] = {}
    for name, start, end, _parent, fcalls, fpoints in spans:
        rec = out.setdefault(name, {"time": 0.0, "calls": 0,
                                    "fft_calls": 0, "fft_points": 0})
        rec["time"] += end - start
        rec["calls"] += 1
        rec["fft_calls"] += fcalls
        rec["fft_points"] += fpoints
    return out


def per_layer_metrics(spans, alloc_mb: float) -> dict:
    """Every span-derived per-layer metric, over the timed ops.

    The timed ops are the spans named "op".  A layer the workload never
    calls reads 0: no time spent in it, no FFTs.
    """
    stats = layer_stats(spans)
    empty = {"time": 0.0, "calls": 0, "fft_calls": 0, "fft_points": 0}
    ops = stats.get("op", empty)
    n_ops = ops["calls"]
    if n_ops == 0:
        raise ValueError("no op spans recorded")

    def per_call(span, key="time"):
        rec = stats.get(span, empty)
        return rec[key] / rec["calls"] if rec["calls"] else 0.0

    out = {"core.fft_calls": ops["fft_calls"] / n_ops,
           "core.fft_points": ops["fft_points"] / n_ops,
           "core.lattice_alloc_mb": float(alloc_mb)}
    out.update({m: per_call(s) for m, s in PER_CALL_S.items()})
    out.update({m: stats.get(s, empty)["time"] / n_ops
                for m, s in PER_OP_S.items()})
    out.update({m: per_call(s, "fft_calls") for m, s in PER_CALL_FFTS.items()})
    out.update({f"cli.{c}_s": per_call(f"cli.{c}") for c in CLI_COMMANDS})
    return out


def import_metrics(imports_s: dict) -> dict:
    return {f"import.{n.replace('.', '_')}_s": imports_s.get(n, 0.0)
            for n in IMPORTS}


# ---------------------------------------------------------------- imports

def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        try:
            cumulative_us = int(parts[1])
        except ValueError:          # the column header line
            continue
        out.setdefault(name, cumulative_us / 1e6)
    return out


def measure_imports(python: str, env: dict, cwd, repeats: int = 3) -> dict:
    """Median cumulative import time of the import layer's modules.

    mpmath and sympy are imported after kgfield.cli, as verify does, so
    their figures are what verify adds on top of the CLI's imports.
    """
    code = "import kgfield.cli; import mpmath; import sympy"
    samples: dict[str, list[float]] = {n: [] for n in IMPORTS}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", code],
                              cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        parsed = parse_importtime(proc.stderr)
        for n in IMPORTS:
            samples[n].append(parsed.get(n, 0.0))
    return {n: statistics.median(v) for n, v in samples.items()}
