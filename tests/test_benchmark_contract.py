"""The benchmark's use of the library: one op of each of the 12 op kinds in
perfbench/ runs through cli.main and passes the benchmark's own output check.

perfbench/ is imported, never written: no bytecode is cached there.
"""

import random
import sys
from pathlib import Path

import pytest

from latticekit import cli
from latticekit.config import load_config, trap_from_config
from latticekit.constants import CONST, RB85

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 2201
KINDS = (
    "simulate-decay", "simulate-temperature", "simulate-combined", "ramp",
    "fit-decay", "fit-temperature", "fit-tof", "bound-psd",
    "cavity", "trap", "bound", "tof",
)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """(bench_checks, the ops by kind, the --psd check) of one seed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.delenv("LATTICEKIT_CONFIG", raising=False)
        import bench_checks
        import bench_ops

        rng = random.Random(SEED)
        inputs = tmp_path_factory.mktemp("inputs")
        pool = bench_ops.write_pool(str(inputs), SEED, 1, CONST.kB, RB85.mass)
        ops = [op for kind_ops in pool.values() for op in kind_ops]
        ops += [bench_ops.simulate_op(rng, model) for model in ("decay", "temperature", "combined")]
        ops += [make(rng) for make in (bench_ops.ramp_op, bench_ops.cavity_op, bench_ops.trap_op,
                                       bench_ops.bound_op, bench_ops.tof_op)]
        trap = trap_from_config(load_config())
        yield bench_checks, {op["kind"]: op for op in ops}, bench_checks.PsdCheck(
            trap.nu_axial, trap.nu_radial)


def test_the_ops_cover_every_checked_kind(bench):
    bench_checks, ops, _psd_check = bench
    assert sorted(ops) == sorted(KINDS)
    assert sorted(KINDS) == sorted([*bench_checks.CHECKS, "bound-psd"])


@pytest.mark.parametrize("kind", KINDS)
def test_benchmark_op_runs_and_passes_its_check(bench, kind, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LATTICEKIT_CONFIG", raising=False)
    bench_checks, ops, psd_check = bench
    op = ops[kind]
    out = str(tmp_path / f"{kind}.out")
    code = cli.main([*op["argv"], "--out", out])
    bench_checks.check(op, out, code, capsys.readouterr().out, psd_check)
