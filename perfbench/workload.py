"""One benchmark workload in one process, started by run.py.

    python perfbench/workload.py WORKLOAD SEED SECONDS TRACE [--setup-only] [--tiny]

Runs in a work directory inside the checkout. Sets up (pins latticekit to
the working tree's src/, imports it, writes the seeded inputs), prints
`ready`, runs the ops closed loop with one client, and prints one JSON line.
"""

import argparse
import contextlib
import importlib
import importlib.metadata
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

import bench_spec
import bench_trace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
POOL_PER_KIND = {"cold_cli": 4, "sim_sweep": 0, "fit_batch": 16}
MIN_OPS = 3
MAX_FAILURES_KEPT = 20


def pinned_env():
    """os.environ with the working tree's src/ first and no config file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("LATTICEKIT_CONFIG", None)
    return env


def pin_latticekit():
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("latticekit")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or SRC.resolve() not in origin.parents:
        raise SystemExit(f"latticekit resolves to {origin}, outside {SRC}: refusing to run")


class InProcess:
    """latticekit.cli.main(argv) with stdout captured and stderr discarded."""

    def __init__(self, main):
        self.main = main

    def __call__(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = self.main(argv)
        return code, stdout.getvalue()


class Cold:
    """One fresh `python -m latticekit.cli` per op; through the shim when traced."""

    def __init__(self, tracer=None):
        self.env = pinned_env()
        self.tracer = tracer
        self.imports = []
        self.absent = []

    def __call__(self, argv):
        if self.tracer is None:
            command = [sys.executable, "-m", "latticekit.cli", *argv]
        else:
            command = [sys.executable, "-X", "importtime", str(HERE / "cli_shim.py"),
                       "shim-spans.json", *argv]
        proc = subprocess.run(command, env=self.env, capture_output=True, text=True, timeout=60)
        if self.tracer is not None:
            with open("shim-spans.json", encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.adopt(child["spans"], child["counts"])
            self.absent = child["absent"]
            self.imports.append(bench_trace.import_times(proc.stderr))
        return proc.returncode, proc.stdout


class Tally:
    """Attempted and failed ops, per-op times and output digests."""

    def __init__(self, checks, psd_check):
        self.checks, self.psd_check = checks, psd_check
        self.attempted = self.failed = 0
        self.failures = []

    def run(self, index, op, out, runner, tracer=None):
        """Run one op; return (CPU s, wall s, digest), the digest None on failure."""
        self.attempted += 1
        argv = [*op["argv"], "--out", out]
        error = None
        wall, cpu = time.perf_counter(), bench_trace.cpu_clock()
        try:
            if tracer is None:
                code, stdout = runner(argv)
            else:
                tracer.op = index
                code, stdout = tracer.call("op", runner, argv)
        except Exception:  # an op fails on an exception,
            error = traceback.format_exc(limit=3)
        cpu, wall = bench_trace.cpu_clock() - cpu, time.perf_counter() - wall
        if error is None:
            try:
                self.checks.check(op, out, code, stdout, self.psd_check)
                return cpu, wall, self.checks.digest(out, stdout)
            except Exception as exc:  # on a wrong exit code or on a failed output check
                error = f"{type(exc).__name__}: {exc}"
        self.fail(index, op, error)
        return cpu, wall, None

    def fail(self, index, op, message):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append({"op": index, "argv": op["argv"], "error": message})

    def repeat(self, op, digest, runner):
        """Re-run op 0 into a fresh directory; its outputs must be byte-identical."""
        *_times, again = self.run(0, op, "r/" + op["kind"] + ".out", runner)
        if digest is not None and again is not None and again != digest:
            self.fail(0, op, f"repeat output digest {again} != first {digest}")
        return again


def per_layer(tracer, untraced, traced):
    """Per-layer metrics of the traced ops (times as mean CPU ms per op)."""
    n = len(traced)
    own = bench_trace.self_times(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name, _unit, _better, _moves in bench_spec.PER_LAYER:
        if name.endswith(".self_ms"):
            metrics[name] = own.get(name[: -len(".self_ms")], 0.0) * 1e3 / n
        elif not name.startswith(("import.", "trace.")):
            metrics[name] = counts.get(name, 0)
    fits = counts.get("fitting.fits", 0)
    metrics["fitting.converged_ratio"] = counts.get("fitting.converged", 0) / fits if fits else 0.0
    untraced_ms = statistics.fmean(untraced) * 1e3
    traced_ms = statistics.fmean(traced) * 1e3
    metrics.update({
        "trace.ops": n,
        "trace.op_ms": traced_ms,
        "trace.untraced_op_ms": untraced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.attributed_ms": sum(v for k, v in own.items() if k != "op") * 1e3 / n,
        "trace.unattributed_ms": own.get("op", 0.0) * 1e3 / n,
    })
    return metrics, {name: seconds * 1e3 / n for name, seconds in sorted(own.items())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=list(bench_spec.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    pin_latticekit()
    cli = importlib.import_module("latticekit.cli")
    import bench_checks  # noqa: E402  (numpy and the checks' references, after latticekit)
    import bench_ops

    from latticekit.config import load_config, trap_from_config
    from latticekit.constants import CONST, RB85

    pool = {}
    if POOL_PER_KIND[args.workload]:
        per_kind = 2 if args.tiny else POOL_PER_KIND[args.workload]
        pool = bench_ops.write_pool("inputs", args.seed, per_kind, CONST.kB, RB85.mass)
    trap = trap_from_config(load_config())
    tally = Tally(bench_checks, bench_checks.PsdCheck(trap.nu_axial, trap.nu_radial))
    stream = bench_ops.stream(args.workload, args.seed, pool)
    cold = args.workload == "cold_cli"
    runner = Cold() if cold else InProcess(cli.main)
    os.makedirs("o", exist_ok=True)
    os.makedirs("r", exist_ok=True)
    print("ready", bench_trace.cpu_clock(), flush=True)
    if args.setup_only:
        return 0

    result = {
        "latticekit_file": sys.modules["latticekit"].__file__,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }
    if args.trace == 0:
        ops, records = [], []
        deadline = time.perf_counter() + args.seconds
        for index, op in enumerate(stream):
            ops.append(op)
            records.append(tally.run(index, op, "o/" + op["kind"] + ".out", runner))
            if time.perf_counter() >= deadline and len(records) >= MIN_OPS:
                break
        result["repeat_digest"] = tally.repeat(ops[0], records[0][2], runner)
    else:
        table = bench_spec.TINY_TRACE_OPS if args.tiny else bench_spec.TRACE_OPS
        ops = list(islice(stream, table[args.workload]))
        records = [tally.run(i, op, "o/" + op["kind"] + ".out", runner) for i, op in enumerate(ops)]
        result["repeat_digest"] = tally.repeat(ops[0], records[0][2], runner)
        tracer = bench_trace.Tracer()
        if cold:
            traced_runner = Cold(tracer)
        else:
            result["absent"] = tracer.install()
            traced_runner = InProcess(tracer.wrap("cli.main", cli.main))
        traced = [
            tally.run(i, op, "o/" + op["kind"] + ".out", traced_runner, tracer)
            for i, op in enumerate(ops)
        ]
        for i, (plain, seen) in enumerate(zip(records, traced)):
            if plain[2] is not None and seen[2] is not None and plain[2] != seen[2]:
                tally.fail(i, ops[i], f"traced output digest {seen[2]} != untraced {plain[2]}")
        metrics, own_ms = per_layer(tracer, [r[0] for r in records], [r[0] for r in traced])
        if cold:
            result["absent"] = traced_runner.absent
            for key in ("import.latticekit_ms", "import.scipy_ms", "import.numpy_ms"):
                metrics[key] = statistics.median(s[key] for s in traced_runner.imports)
        result.update(per_layer=metrics, self_ms=own_ms)
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    usage = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        cpu_ms=[r[0] * 1e3 for r in records],
        wall_ms=[r[1] * 1e3 for r in records],
        digests=[r[2] for r in records],
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
