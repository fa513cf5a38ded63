"""Per-layer tracing of sqbath from outside the package.

Each layer is one sqbath module.  The tracer replaces the layer's public
functions with wrappers, patching each name where its consumer bound it
(``fourier_quad`` is imported by name into ``oscillator_dynamics``,
``energy_fdr`` and ``bath_kernels``, so it is wrapped in all three).  A call
of a coarse function records a span (name, parent, start, end) kept in
memory; fine-grained callbacks (quadrature integrands, squeeze-spectrum
lookups, ODE right-hand sides) only bump counters, because a run makes
hundreds of thousands of them.  The integrand time spent inside a
quadrature span is kept on that span, so a span's self time is its
duration minus its child spans and its integrand time.

A target that no longer exists makes :meth:`Tracer.install` raise, so a
refactor that renames or removes a traced function breaks the trace
instead of silently reporting zero for its layer.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (layer, module, attribute path, kind).  Kinds: "span" records a span,
# "quad" records a span and counts the integrand evaluations of its first
# argument, "spectrum" and "rhs" only count.
TARGETS = (
    ("cli", "sqbath.cli", "run", "span"),
    ("cli", "sqbath.cli", "run_sweep", "span"),
    ("parametric_mode", "sqbath.cli", "squeeze_spectrum", "span"),
    ("parametric_mode", "sqbath.parametric_mode", "integrate_mode", "span"),
    ("parametric_mode", "sqbath.parametric_mode", "MassProfile.omega_sq", "rhs"),
    ("oscillator_dynamics", "sqbath.cli", "covariance_evolution", "span"),
    ("oscillator_dynamics", "sqbath.cli", "chi_hadamard_components", "span"),
    ("oscillator_dynamics", "sqbath.cli", "ns_st_split", "span"),
    ("energy_fdr", "sqbath.cli", "power_in", "span"),
    ("energy_fdr", "sqbath.cli", "power_out", "span"),
    ("energy_fdr", "sqbath.cli", "fdr_oscillator", "span"),
    ("gaussian_state", "sqbath.cli", "extract_squeeze", "span"),
    ("quadrature", "sqbath.oscillator_dynamics", "fourier_quad", "quad"),
    ("quadrature", "sqbath.energy_fdr", "fourier_quad", "quad"),
    ("quadrature", "sqbath.energy_fdr", "plain_quad", "quad"),
    ("quadrature", "sqbath.bath_kernels", "fourier_quad", "quad"),
    ("bath_kernels", "sqbath.bath_kernels", "SqueezeSpectrum.eta_at", "spectrum"),
    ("bath_kernels", "sqbath.bath_kernels", "SqueezeSpectrum.theta_at", "spectrum"),
)

# Layers whose entry is called once per time point, and the functions that
# make up one point: quadrature calls per point are counted under them.
PER_POINT = {
    "oscillator_dynamics": (("covariance_evolution",), "covariance_evolution"),
    "energy_fdr": (("power_in", "power_out"), "power_in"),
}

# span record fields
NAME, PARENT, START, END, INNER = range(5)


class TraceTargetMissing(RuntimeError):
    """A function the tracer was told to wrap does not exist."""


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, attr, None)):
        raise TraceTargetMissing(
            f"trace target {module}.{path} does not exist; update "
            "perfbench/tracing.py TARGETS to the code being measured"
        )
    return owner, attr


class Tracer:
    """Wraps the traced functions and keeps spans and counters in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        resolved = [(t, *_resolve(t[1], t[2])) for t in self.targets]
        for (layer, _, path, kind), owner, attr in resolved:
            name = path.rsplit(".", 1)[-1]
            self.layer_of[name] = layer
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrap = {
                "span": self._span,
                "quad": self._quad,
                "spectrum": self._spectrum,
                "rhs": self._rhs,
            }[kind]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        wrapper.__wrapped__ = fn
        return wrapper

    def _quad(self, name, fn):
        counts = self.counts

        def wrapper(kernel, *args, **kwargs):
            record = self._open(name)

            def counted(w):
                started = time.perf_counter()
                try:
                    return kernel(w)
                finally:
                    record[INNER] += time.perf_counter() - started
                    counts["quadrature.evals"] += getattr(w, "size", 1)

            if name == "fourier_quad" and (args[0] if args else kwargs.get("freq")) == 0:
                counts["quadrature.zero_freq_calls"] += 1
            try:
                return fn(counted, *args, **kwargs)
            except Exception:
                counts["quadrature.errors"] += 1
                raise
            finally:
                self._close(record)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spectrum(self, name, fn):
        counts = self.counts

        def wrapper(spectrum, k):
            started = time.perf_counter()
            try:
                return fn(spectrum, k)
            finally:
                counts["bath_kernels.spectrum_s"] += time.perf_counter() - started
                counts["bath_kernels.spectrum_calls"] += 1
                counts["bath_kernels.spectrum_points"] += getattr(k, "size", 1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rhs(self, name, fn):
        counts = self.counts

        def wrapper(profile, k, t):
            counts["parametric_mode.rhs_evals"] += 1
            return fn(profile, k, t)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of everything recorded so far."""
        spans = self.spans
        layer = [self.layer_of[s[NAME]] for s in spans]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]

        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        quad_under = defaultdict(int)
        for i, s in enumerate(spans):
            lay = layer[i]
            calls[lay] += 1
            self_time[lay] += s[END] - s[START] - child_time[i] - s[INNER]
            ancestors = []
            p = s[PARENT]
            while p >= 0:
                ancestors.append(p)
                p = spans[p][PARENT]
            if all(layer[a] != lay for a in ancestors):
                busy[lay] += s[END] - s[START]
            if lay == "quadrature":
                for name in {spans[a][NAME] for a in ancestors}:
                    quad_under[name] += 1
        names = defaultdict(int)
        for s in spans:
            names[s[NAME]] += 1

        out = {
            "quadrature.calls": calls["quadrature"],
            "quadrature.evals": self.counts["quadrature.evals"],
            "quadrature.evals_per_call": self.counts["quadrature.evals"] / max(calls["quadrature"], 1),
            "quadrature.busy_s": busy["quadrature"],
            "quadrature.integrand_s": sum(s[INNER] for s in spans),
            "quadrature.self_s": self_time["quadrature"],
            "quadrature.zero_freq_calls": self.counts["quadrature.zero_freq_calls"],
            "quadrature.errors": self.counts["quadrature.errors"],
            "bath_kernels.spectrum_calls": self.counts["bath_kernels.spectrum_calls"],
            "bath_kernels.spectrum_points": self.counts["bath_kernels.spectrum_points"],
            "bath_kernels.spectrum_s": self.counts["bath_kernels.spectrum_s"],
            "parametric_mode.modes": names["integrate_mode"],
            "parametric_mode.rhs_evals": self.counts["parametric_mode.rhs_evals"],
            "parametric_mode.busy_s": busy["parametric_mode"],
            "gaussian_state.calls": calls["gaussian_state"],
            "gaussian_state.busy_s": busy["gaussian_state"],
            "cli.self_s": self_time["cli"],
        }
        for lay in ("oscillator_dynamics", "energy_fdr"):
            members, point = PER_POINT[lay]
            out[f"{lay}.calls"] = calls[lay]
            out[f"{lay}.busy_s"] = busy[lay]
            out[f"{lay}.self_s"] = self_time[lay]
            out[f"{lay}.quad_calls_per_point"] = sum(quad_under[m] for m in members) / max(
                names[point], 1
            )
        return out

    def span_dump(self) -> dict:
        """Spans as plain lists, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["id", "parent", "name", "start_s", "end_s", "integrand_s"],
            "spans": [
                [i, s[PARENT], s[NAME], s[START] - t0, s[END] - t0, s[INNER]]
                for i, s in enumerate(self.spans)
            ],
        }
