"""latticekit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cold_cli,sim_sweep,fit_batch} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The working tree's src/ is what is measured;
latticekit need not be installed and must not resolve elsewhere. Each run
sets the workload up several times in fresh processes (setup_s is their
median), then measures for S seconds closed loop with one client. With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run over a fixed list of ops. Full
results, with environment pins and output digests, go to
.perfbench_out/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_spec
import bench_trace
from workload import pinned_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def start_workload(args, workdir, stderr, setup_only):
    """Start one workload process; return it and its set-up (CPU s, wall s)."""
    command = [sys.executable]
    if args.trace:
        command += ["-X", "importtime"]
    command += [str(HERE / "workload.py"), args.workload, str(args.seed),
                str(args.seconds), str(args.trace)]
    command += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=workdir, env=pinned_env(), text=True,
                            stdout=subprocess.PIPE, stderr=stderr)
    ready = proc.stdout.readline().split()
    wall = time.perf_counter() - start
    if len(ready) != 2 or ready[0] != "ready":
        proc.kill()
        proc.wait()
        fail(f"workload set-up failed; see {stderr.name}")
    return proc, (float(ready[1]), wall)


def finish(proc):
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("workload timed out")
    if proc.returncode != 0:
        fail(f"workload exited with code {proc.returncode}")
    return out


def end_to_end(cpu_ms, setups, rss_mb):
    return {
        "setup_s": statistics.median(cpu for cpu, _wall in setups),
        "op_cpu_ms.p50": statistics.median(cpu_ms),
        "op_cpu_ms.p90": statistics.quantiles(cpu_ms, n=10)[-1],
        "ops_per_cpu_s": len(cpu_ms) / (sum(cpu_ms) / 1e3),
        "peak_rss_mb": rss_mb,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(bench_spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one set-up, a short traced op list")
    args = parser.parse_args()
    if not (ROOT / "src" / "latticekit" / "__init__.py").is_file():
        fail(f"no latticekit source under {ROOT / 'src'}: run from a checkout of the repository")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{name}-{os.getpid()}"
    results = OUT / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        with open(workdir / "stderr.txt", "w+", encoding="utf-8") as stderr:
            for _ in range(0 if args.tiny else bench_spec.SETUPS - 1):
                proc, setup = start_workload(args, workdir, stderr, setup_only=True)
                finish(proc)
                setups.append(setup)
            proc, setup = start_workload(args, workdir, stderr, setup_only=False)
            setups.append(setup)
            child = json.loads(finish(proc).strip().splitlines()[-1])
            if args.trace:
                metrics = child["per_layer"]
                # cold_cli measured import in each traced CLI child; the others
                # take the mean over their set-up processes, whose stderr this is
                stderr.seek(0)
                for key, total in bench_trace.import_times(stderr.read()).items():
                    metrics.setdefault(key, total / len(setups))
                shutil.copy(workdir / "spans.json", results / f"{name}.spans.json")
            else:
                metrics = end_to_end(child["cpu_ms"], setups, child["peak_rss_mb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m[0]: m[1] for m in bench_spec.END_TO_END + bench_spec.PER_LAYER}
    line = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = dict(
        line,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        error_rate=child["failed"] / child["attempted"],
        op_samples=len(child["cpu_ms"]),
        setup_cpu_s=[cpu for cpu, _wall in setups],
        setup_wall_s=[wall for _cpu, wall in setups],
        git_commit=git_commit(),
        nproc=len(os.sched_getaffinity(0)),
        **{k: v for k, v in child.items() if k not in ("per_layer", "attempted", "failed")},
    )
    with open(results / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
