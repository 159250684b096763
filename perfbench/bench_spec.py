"""Workloads and metrics of the latticekit benchmark.

BENCHMARK.json mirrors these tables; `selftest.py` checks that it does.
Each per-layer metric carries the end-to-end metric and workload it is
predicted to move, written down before any optimisation is measured.
"""

WORKLOADS = {
    "cold_cli": (
        "one fresh `python -m latticekit.cli` per op over a seeded mix of all seven "
        "commands; import dominates, the integrators are bypassed"
    ),
    "sim_sweep": (
        "in-process cli.main simulate/ramp with seeded sizes; RK4, the ramp loop "
        "and CSV writes dominate, import is paid once in set-up"
    ),
    "fit_batch": (
        "in-process cli.main fit/bound --psd on seeded noisy CSVs; CSV reads, "
        "report writes and the fits dominate, the integrators are untouched"
    ),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_cpu_ms.p50", "ms", "lower", 0.25),
    ("op_cpu_ms.p90", "ms", "lower", 0.25),
    ("ops_per_cpu_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

_SIM = "op_cpu_ms.p50 and ops_per_cpu_s on sim_sweep; no change on fit_batch"
_FIT = "op_cpu_ms.p50 and ops_per_cpu_s on fit_batch; no change on sim_sweep"
_BOTH = "op_cpu_ms.p50 on sim_sweep and fit_batch"
_IMPORT = (
    "op_cpu_ms.p50 and ops_per_cpu_s on cold_cli, setup_s everywhere; "
    "no change to op_ms on sim_sweep or fit_batch"
)

# (name, unit, better, predicted effect). Times are mean ms per traced op;
# counts are totals over the fixed list of traced ops.
PER_LAYER = [
    ("import.latticekit_ms", "ms", "lower", _IMPORT),
    ("import.scipy_ms", "ms", "lower", _IMPORT),
    ("import.numpy_ms", "ms", "lower", _IMPORT),
    ("cli.main.calls", "count", "lower", "work count; op_cpu_ms.p50 on cold_cli by a few ms at most"),
    ("cli.main.self_ms", "ms", "lower", "op_cpu_ms.p50 on cold_cli by a few ms at most"),
    ("config.load_config.self_ms", "ms", "lower", "small on all workloads; finite-value checks show here"),
    ("config.cavity_from_config.self_ms", "ms", "lower", "small on cold_cli; finite-value checks show here"),
    ("config.mode_from_config.self_ms", "ms", "lower", "small on cold_cli; finite-value checks show here"),
    ("config.trap_from_config.self_ms", "ms", "lower", "small on cold_cli and fit_batch"),
    ("config.state_from_config.self_ms", "ms", "lower", "small on cold_cli and sim_sweep"),
    ("integrate.rk4_path.calls", "count", "lower", _SIM),
    ("integrate.rk4_path.self_ms", "ms", "lower", _SIM),
    ("losses.integrate_eq1.calls", "count", "lower", "moves to losses.population.calls on sim_sweep"),
    ("losses.integrate_eq1.self_ms", "ms", "lower", _SIM),
    ("losses.population.calls", "count", "higher", "rises when the closed form replaces RK4 on sim_sweep"),
    ("losses.population.self_ms", "ms", "lower", _SIM),
    ("heating.combined_temperature_ode.calls", "count", "lower", "work count on sim_sweep"),
    ("heating.combined_temperature_ode.self_ms", "ms", "lower", _SIM),
    ("heating.bound_gamma_tot.self_ms", "ms", "lower", _FIT),
    ("heating.rates_from_spectrum.self_ms", "ms", "lower", _FIT),
    ("protocols.ramp_simulate.calls", "count", "lower", "work count on sim_sweep"),
    ("protocols.ramp_simulate.self_ms", "ms", "lower", "op_cpu_ms.p90 on sim_sweep; no change on fit_batch"),
    ("protocols.ramp_steps", "count", "lower", "work count: ramp steps requested on sim_sweep"),
    ("protocols.synthesize_expansion.self_ms", "ms", "lower", "op_cpu_ms.p50 on cold_cli by under 1 ms"),
    ("protocols.fit_expansion.self_ms", "ms", "lower", _FIT),
    ("evaporation.beta_esc.calls", "count", "lower", "work count: one call per ramp step on sim_sweep"),
    ("fitting.fit_decay.self_ms", "ms", "lower", _FIT),
    ("fitting.fit_epsilon.self_ms", "ms", "lower", _FIT),
    ("fitting.residual_report.self_ms", "ms", "lower", _FIT),
    ("fitting.iterations", "count", "lower", "work count of fit_decay and fit_epsilon on fit_batch"),
    ("fitting.converged_ratio", "ratio", "higher", "error_rate on fit_batch; 0 where no fit ran"),
    ("tabular.write_columns.self_ms", "ms", "lower", _BOTH),
    ("tabular.write_columns.rows", "count", "lower", "work count on sim_sweep"),
    ("tabular.atomic_write_text.calls", "count", "lower", "work count on sim_sweep and fit_batch"),
    ("tabular.atomic_write_text.bytes", "B", "lower", "work count on sim_sweep and fit_batch"),
    ("tabular.atomic_write_text.self_ms", "ms", "lower", _BOTH),
    ("tabular.read_dataset.self_ms", "ms", "lower", _FIT),
    ("tabular.read_dataset.rows", "count", "lower", "work count on fit_batch"),
    ("tabular.read_expansion.self_ms", "ms", "lower", _FIT),
    ("tabular.read_noise_spectrum.self_ms", "ms", "lower", _FIT),
    ("trace.ops", "count", "higher", "traced ops: the base of every per-op mean above"),
    ("trace.op_ms", "ms", "lower", "mean traced op time; tracks op_cpu_ms.p50 on the same workload"),
    ("trace.untraced_op_ms", "ms", "lower", "the same ops untraced; tracks op_cpu_ms.p50"),
    ("trace.overhead_ms", "ms", "lower", "tracing cost per op; must stay small next to trace.op_ms"),
    ("trace.attributed_ms", "ms", "lower", "sum of every span's self time per op"),
    ("trace.unattributed_ms", "ms", "lower", "op time outside every layer span (spawn and exit on cold_cli)"),
]

# Fixed number of ops in the traced run, so counts repeat exactly for a seed.
# cold_cli's 12 are one shuffled block holding every command variant.
TRACE_OPS = {"cold_cli": 12, "sim_sweep": 400, "fit_batch": 400}
TINY_TRACE_OPS = {"cold_cli": 3, "sim_sweep": 8, "fit_batch": 8}

# Set-ups per run; setup_s is their median.
SETUPS = 5
