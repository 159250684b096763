"""Spans around the calls into each latticekit layer, from outside the package.

A traced run rebinds a layer function's name in the namespace of the module
that calls it, so a layer reached only through another one (the integrator
through losses and heating, beta_esc through protocols) is still seen. The
untraced run patches nothing. Spans are kept in memory and written once.
"""

import importlib
import inspect
import resource
import time
from collections import Counter

# (calling module, name in its namespace, span name, counter hook)
PATCHES = [
    ("latticekit.cli", "load_config", "config.load_config", None),
    ("latticekit.cli", "cavity_from_config", "config.cavity_from_config", None),
    ("latticekit.cli", "mode_from_config", "config.mode_from_config", None),
    ("latticekit.cli", "trap_from_config", "config.trap_from_config", None),
    ("latticekit.cli", "state_from_config", "config.state_from_config", None),
    ("latticekit.cli", "integrate_eq1", "losses.integrate_eq1", None),
    ("latticekit.cli", "population", "losses.population", None),
    ("latticekit.cli", "combined_temperature_ode", "heating.combined_temperature_ode", None),
    ("latticekit.cli", "bound_gamma_tot", "heating.bound_gamma_tot", None),
    ("latticekit.cli", "rates_from_spectrum", "heating.rates_from_spectrum", None),
    ("latticekit.cli", "ramp_simulate", "protocols.ramp_simulate", "ramp_steps"),
    ("latticekit.cli", "synthesize_expansion", "protocols.synthesize_expansion", None),
    ("latticekit.cli", "fit_expansion", "protocols.fit_expansion", None),
    ("latticekit.cli", "fit_decay", "fitting.fit_decay", "fit"),
    ("latticekit.cli", "fit_epsilon", "fitting.fit_epsilon", "fit"),
    ("latticekit.cli", "residual_report", "fitting.residual_report", None),
    ("latticekit.cli", "write_columns", "tabular.write_columns", "rows_written"),
    ("latticekit.cli", "atomic_write_text", "tabular.atomic_write_text", "bytes_written"),
    ("latticekit.cli", "read_dataset", "tabular.read_dataset", "rows_read"),
    ("latticekit.cli", "read_expansion", "tabular.read_expansion", None),
    ("latticekit.cli", "read_noise_spectrum", "tabular.read_noise_spectrum", None),
    ("latticekit.tabular", "write_columns", "tabular.write_columns", "rows_written"),
    ("latticekit.tabular", "atomic_write_text", "tabular.atomic_write_text", "bytes_written"),
    ("latticekit.losses", "rk4_path", "integrate.rk4_path", None),
    ("latticekit.heating", "rk4_path", "integrate.rk4_path", None),
]

# Called once per ramp step: counted, not spanned, to keep the cost down.
COUNT_ONLY = [("latticekit.protocols", "beta_esc", "evaporation.beta_esc")]


def _ramp_steps(counts, bound, _result):
    counts["protocols.ramp_steps"] += bound.arguments["steps"]


def _fit(counts, _bound, result):
    counts["fitting.fits"] += 1
    counts["fitting.converged"] += bool(result.converged)
    counts["fitting.iterations"] += result.iterations


def _rows_written(counts, bound, _result):
    counts["tabular.write_columns.rows"] += len(bound.arguments["columns"][0])


def _bytes_written(counts, bound, _result):
    counts["tabular.atomic_write_text.bytes"] += len(bound.arguments["text"].encode())


def _rows_read(counts, _bound, result):
    counts["tabular.read_dataset.rows"] += len(result)


HOOKS = {
    "ramp_steps": _ramp_steps,
    "fit": _fit,
    "rows_written": _rows_written,
    "bytes_written": _bytes_written,
    "rows_read": _rows_read,
}


def cpu_clock():
    """CPU seconds (user + system) of this process and its waited-for children.

    Every time the benchmark reports is CPU time: on a shared virtual machine
    the hypervisor can take a large and changing share of wall time, which
    CPU time does not include.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tracer:
    """Spans as [name, start, end, parent index, op id] in cpu_clock()
    seconds, plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = cpu_clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = cpu_clock()
            self._stack.pop()

    def adopt(self, spans, counts):
        """Append a child process's spans under the open span; add its counts."""
        parent, offset = self._stack[-1], len(self.spans)
        for name, start, end, up, _op in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, self.op])
        self.counts.update(counts)

    def wrap(self, name, fn, hook=None):
        """fn with a span and a call count around every call."""
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self.counts[name + ".calls"] += 1
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound, result)
            return result

        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every target; returns the span names whose target is absent."""
        absent = []
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), HOOKS.get(hook)))
            else:
                absent.append(f"{name} (not referenced by {module_name})")
        for module_name, attr, name in COUNT_ONLY:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self._counted(name, getattr(module, attr)))
            else:
                absent.append(f"{name} (not referenced by {module_name})")
        return absent


def self_times(spans):
    """Seconds per span name: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = Counter()
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return totals


def import_times(stderr_text):
    """latticekit, scipy and numpy import ms from `python -X importtime` output.

    latticekit is the cumulative time of its top-level entries; scipy and
    numpy are the sums of their modules' self times, so the three overlap
    only in that latticekit's total includes the other two.
    """
    totals = {"latticekit": 0, "scipy": 0, "numpy": 0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        package = name.strip().split(".")[0]
        if package == "latticekit" and depth == 0:
            totals["latticekit"] += cumulative_us
        elif package in ("scipy", "numpy"):
            totals[package] += self_us
    return {f"import.{key}_ms": value / 1e3 for key, value in totals.items()}
