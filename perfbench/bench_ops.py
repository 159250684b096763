"""Seeded operations and input files for each workload.

An op is a dict: `kind`, `argv` (the CLI arguments without `--out`) and
`expect` (the generating parameters its output is checked against). Input
series are written during set-up with numpy only, never through latticekit.
Sizes are drawn log-uniformly but stratified, so every seed covers the same
size range and the op-time distribution is the same from seed to seed.
"""

import math
import os
import random
from functools import partial

import numpy as np

RHO_PEAK_PER_CM3 = 9.0e11  # the configured default, which fits rely on
BETA_CM3_PER_S = 7.5e-12    # the configured default
SIZE_RANGE = (20, 2000)     # rows of a generated input series


def _f(value):
    return repr(float(value))


def _xi(beta, gamma):
    return beta * RHO_PEAK_PER_CM3 / (4.0 * gamma)


def stratified_sizes(rng, count, lo=SIZE_RANGE[0], hi=SIZE_RANGE[1]):
    """One log-uniform size in each of `count` equal strata of [lo, hi]."""
    span = math.log(hi / lo)
    sizes = [round(lo * math.exp(span * (k + rng.random()) / count)) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


# ---------------------------------------------------------------------------
# simulate and ramp ops

def simulate_op(rng, model):
    n_points = rng.randint(201, 2001)
    t_max = rng.uniform(1.0, 8.0)
    gamma = rng.uniform(0.3, 1.0)
    beta = rng.uniform(3e-12, 1.2e-11)
    argv = [
        "simulate", "--model", model,
        "--sim.n_points", str(n_points), "--sim.t_max_s", _f(t_max),
        "--loss.gamma_per_s", _f(gamma), "--loss.beta_cm3_per_s", _f(beta),
    ]
    expect = {"n_points": n_points, "t_max": t_max, "gamma": gamma, "xi": _xi(beta, gamma)}
    if model == "decay":
        n0 = rng.uniform(1e6, 8e6)
        argv += ["--sample.atom_number", _f(n0)]
        expect["n0"] = n0
    else:
        t0 = rng.uniform(60.0, 200.0)
        epsilon = rng.uniform(0.05, 0.8) / expect["xi"]  # eps * xi < 1
        argv += ["--sample.temperature_uK", _f(t0), "--evap.epsilon", _f(epsilon)]
        expect.update(t0=t0, epsilon=epsilon)
        if model == "combined":
            gamma_tot = rng.uniform(0.005, 0.1)
            argv += ["--heating.gamma_tot_per_s", _f(gamma_tot)]
            expect["gamma_tot"] = gamma_tot
    return {"kind": f"simulate-{model}", "argv": argv, "expect": expect}


def ramp_op(rng):
    argv = [
        "ramp",
        "--ramp.steps", str(rng.randint(1024, 4096)),
        "--ramp.duration_ms", _f(rng.uniform(20.0, 1000.0)),
        "--ramp.depth_final_uK", _f(rng.uniform(100.0, 300.0)),
        "--ramp.rethermalization", rng.choice(["collision-gated", "instant"]),
    ]
    return {"kind": "ramp", "argv": argv, "expect": {}}


# ---------------------------------------------------------------------------
# input series for fit and bound --psd

def _write_csv(path, header, columns):
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _decay_series(path, n, gen):
    gamma, beta = gen.uniform(0.4, 0.8), gen.uniform(5e-12, 1e-11)
    n0 = gen.uniform(2e6, 6e6)
    xi = _xi(beta, gamma)
    t = np.linspace(0.0, gen.uniform(2.0, 8.0), n)
    decay = np.exp(-gamma * t)
    clean = n0 * decay / (1.0 + xi * (1.0 - decay))
    sigma = 0.01 * clean
    _write_csv(path, ("t_s", "N", "sigma"), (t, clean + sigma * gen.standard_normal(n), sigma))
    return ["fit", "--kind", "decay"], {
        "rows": n, "gamma_per_s": gamma, "beta_cm3_per_s": beta, "n0": n0,
    }


# The temperature and expansion fits are unweighted least squares, whose
# reported uncertainties assume noise of constant variance in T and in
# sigma^2; those series are generated that way so "within 5 reported sigma"
# tests the fits as specified. (With 0.5% multiplicative width noise the
# expansion fit missed by over 5 sigma in 1 of 2400 series.)

def _temperature_series(path, n, gen):
    gamma, t0 = gen.uniform(0.3, 1.0), gen.uniform(60.0, 200.0)
    xi = _xi(BETA_CM3_PER_S, gamma)
    epsilon = gen.uniform(0.1, 0.7) / xi
    t = np.linspace(0.0, gen.uniform(2.0, 8.0), n)
    clean = t0 * (1.0 - epsilon * xi * (1.0 - np.exp(-gamma * t)))
    _write_csv(path, ("t_s", "T_uK"), (t, clean + 0.005 * t0 * gen.standard_normal(n)))
    argv = ["fit", "--kind", "temperature",
            "--loss.gamma_per_s", _f(gamma), "--sample.temperature_uK", _f(t0)]
    return argv, {"rows": n, "epsilon": epsilon}


def _expansion_series(path, n, gen, kb, mass):
    temperature = gen.uniform(50e-6, 200e-6)
    sigma0 = gen.uniform(80e-6, 150e-6)
    n_atoms = gen.uniform(1e6, 5e6)
    t = np.linspace(0.1e-3, 2.0e-3, n)
    width2 = sigma0**2 + kb * temperature / mass * t**2
    measured = np.sqrt(width2 + 0.01 * width2[-1] * gen.standard_normal(n))
    amplitude = n_atoms / (2.0 * math.pi * width2)
    _write_csv(path, ("t_ms", "sigma_um", "amplitude"), (t * 1e3, measured * 1e6, amplitude))
    return ["fit", "--kind", "tof"], {
        "rows": n, "temperature_uK": temperature * 1e6,
        "sigma0_um": sigma0 * 1e6, "n_atoms": n_atoms,
    }


def _noise_spectrum(path, n, gen):
    freq = np.logspace(1.0, 7.0, n)
    level = 10.0 ** gen.uniform(-13.0, -11.0)
    slope = gen.uniform(0.0, 1.5)
    density = level * (freq / 1e3) ** -slope * (1.0 + 0.2 * gen.random(n))
    _write_csv(path, ("freq_hz", "S_rel_per_hz"), (freq, density))
    return ["bound"], {"rows": n}


def write_pool(directory, seed, per_kind, kb, mass):
    """Write `per_kind` seeded input files of each kind; return their ops."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    makers = {
        "fit-decay": _decay_series,
        "fit-temperature": _temperature_series,
        "fit-tof": lambda path, n, g: _expansion_series(path, n, g, kb, mass),
        "bound-psd": _noise_spectrum,
    }
    pool = {}
    for kind, make in makers.items():
        pool[kind] = []
        for k, n in enumerate(stratified_sizes(rng, per_kind)):
            path = os.path.join(directory, f"{kind}-{k}.csv")
            argv, expect = make(path, n, gen)
            flag = "--psd" if kind == "bound-psd" else "--data"
            pool[kind].append({"kind": kind, "argv": argv + [flag, path], "expect": expect})
    return pool


# ---------------------------------------------------------------------------
# commands only the cold workload runs

def cavity_op(rng):
    length, ring_down = rng.uniform(80.0, 120.0), rng.uniform(5.0, 15.0)
    argv = ["cavity", "--cavity.round_trip_length_mm", _f(length),
            "--cavity.ring_down_us", _f(ring_down)]
    return {"kind": "cavity", "argv": argv,
            "expect": {"length_mm": length, "ring_down_us": ring_down}}


def trap_op(rng):
    depth, temperature = rng.uniform(200.0, 500.0), rng.uniform(80.0, 150.0)
    argv = ["trap", "--trap.depth_uK", _f(depth), "--sample.temperature_uK", _f(temperature)]
    return {"kind": "trap", "argv": argv,
            "expect": {"depth_uK": depth, "temperature_uK": temperature}}


def bound_op(rng):
    gamma = 0.6  # configured default
    epsilon = rng.uniform(0.05, 0.8) / _xi(BETA_CM3_PER_S, gamma)
    t_max = rng.uniform(0.5, 8.0)
    argv = ["bound", "--evap.epsilon", _f(epsilon), "--bound.t_max_s", _f(t_max)]
    return {"kind": "bound", "argv": argv, "expect": {}}


def tof_op(rng):
    n_times = rng.randint(8, 64)
    temperature = rng.uniform(50.0, 200.0)
    argv = ["tof", "--tof.seed", str(rng.randint(1, 2**31 - 1)),
            "--tof.n_times", str(n_times), "--sample.temperature_uK", _f(temperature)]
    return {"kind": "tof", "argv": argv,
            "expect": {"n_times": n_times, "temperature_uK": temperature}}


# ---------------------------------------------------------------------------
# op streams

def _blocks(rng, variants):
    """Endless shuffled blocks, each holding every variant once."""
    while True:
        block = list(variants)
        rng.shuffle(block)
        yield from block


def _pick(ops, rng):
    return ops[rng.randrange(len(ops))]


def stream(workload, seed, pool):
    """Endless seeded op sequence of a workload."""
    rng = random.Random(seed * 7919 + 1)
    simulate = [partial(simulate_op, model=m) for m in ("decay", "temperature", "combined")]
    fits = [partial(_pick, ops) for ops in pool.values()]
    variants = {
        "sim_sweep": [*simulate, ramp_op],
        "fit_batch": fits,
        "cold_cli": [cavity_op, trap_op, *simulate, ramp_op, *fits, bound_op, tof_op],
    }[workload]
    for make in _blocks(rng, variants):
        yield make(rng)
