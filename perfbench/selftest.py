"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract and bench_spec, runs
every workload with --tiny untraced and traced and validates the result line
and the results file against their schema, and checks that the benchmark
refuses to run in a copy holding only BENCHMARK.json and perfbench/. Takes
about a minute; exits 1 on the first problem.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import bench_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DIGEST = re.compile(r"[0-9a-f]{16}")


class Invalid(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Invalid(message)


def check_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    expect(path.stat().st_size <= 64 * 1024, "BENCHMARK.json is over 64 KiB")
    spec = json.loads(path.read_text(encoding="utf-8"))
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           f"BENCHMARK.json keys {sorted(spec)}")
    expect(len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"]), "command")
    expect(1 <= len(spec["paths"]) <= 16, "paths")
    for p in spec["paths"]:
        expect(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and ".." not in p.split("/")
               and not p.startswith("/"), f"path {p!r}")
    expect(type(spec["run_seconds"]) is int and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = []
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    expect(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128, "metric counts")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(m)}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer keys {sorted(m)}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.fullmatch(m["unit"]), f"unit {m['unit']!r}")
        expect(m["better"] in ("lower", "higher"), f"better of {m['name']}")
        names.append(m["name"])
    expect(all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    expect(len(names) == len(set(names)), "a name is used twice")
    expect({"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"],
           "setup_s must be in seconds, lower-better, with the largest bound")
    expect([w["name"] for w in spec["workloads"]] == list(bench_spec.WORKLOADS)
           and [w["why"] for w in spec["workloads"]] == list(bench_spec.WORKLOADS.values()),
           "workloads differ from bench_spec.WORKLOADS")
    expect([list(m.values()) for m in spec["end_to_end"]] == [list(m) for m in bench_spec.END_TO_END],
           "end_to_end differs from bench_spec.END_TO_END")
    expect([list(m.values()) for m in spec["per_layer"]] == [list(m[:3]) for m in bench_spec.PER_LAYER],
           "per_layer differs from bench_spec.PER_LAYER")
    return spec


def check_line(line, spec, trace):
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(line)}")
    expect(type(line["attempted"]) is int and line["attempted"] >= 1, "attempted")
    expect(type(line["failed"]) is int and line["correct"] is (line["failed"] == 0), "failed/correct")
    expect(line["correct"], f"{line['failed']} of {line['attempted']} ops failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    expect(set(line["metrics"]) == set(wanted),
           f"metrics differ: {sorted(set(line['metrics']) ^ set(wanted))}")
    for name, metric in line["metrics"].items():
        expect(set(metric) == {"value", "unit"} and metric["unit"] == wanted[name], f"metric {name}")
        expect(isinstance(metric["value"], (int, float)), f"value of {name}")


def check_details(path, trace):
    d = json.loads(path.read_text(encoding="utf-8"))
    for key, kind in [("workload", str), ("seed", int), ("error_rate", float),
                      ("op_samples", int), ("setup_cpu_s", list), ("setup_wall_s", list),
                      ("git_commit", str), ("nproc", int), ("latticekit_file", str),
                      ("python", str), ("numpy", str), ("scipy", str), ("digests", list),
                      ("cpu_ms", list), ("wall_ms", list), ("peak_rss_mb", float),
                      ("failures", list)]:
        expect(isinstance(d.get(key), kind), f"{path.name}: {key} missing or not {kind.__name__}")
    expect(Path(d["latticekit_file"]).resolve().is_relative_to(ROOT / "src"), "latticekit pin")
    expect(all(DIGEST.fullmatch(x) for x in d["digests"] + [d["repeat_digest"]]), "digests")
    if trace:
        expect(isinstance(d.get("self_ms"), dict) and isinstance(d.get("absent"), list), "trace data")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main():
    try:
        spec = check_benchmark_json()
        for workload in bench_spec.WORKLOADS:
            for trace in (0, 1):
                proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", str(trace), "--tiny"])
                expect(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n"
                       f"{proc.stderr}")
                check_line(json.loads(proc.stdout.splitlines()[-1]), spec, trace)
                check_details(ROOT / ".perfbench_out" / "results"
                              / f"{workload}-seed1-trace{trace}.json", trace)
                print(f"ok  {workload} trace {trace}")
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "sim_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        shutil.rmtree(bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the source tree")
        print("ok  refuses to run without src/")
    except Invalid as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
