"""Benchmark launcher: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The launcher generates the workload's inputs
from the seed and times set-up in SETUP_SAMPLES fresh processes (child.py).
The last of them goes on to run the workload: a cold pass, then timed
passes for about S seconds.  Every process runs alone, with the BLAS and
OpenMP thread pools pinned to one thread.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json for --trace 0 and its per-layer metrics for
--trace 1.  The full record (machine, commit, seed, per-pass and per-job
times, failures) goes to perfbench/out/results/, and a traced run also
writes its spans and self-time table to perfbench/out/traces/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 9  # fresh processes whose set-up time gives setup_s's median
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(manifest: Path, mode: str, seconds: float) -> tuple[float, dict | None]:
    """Run child.py to completion; returns (start time, its printed JSON or None)."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(manifest), mode, str(seconds)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"child process ({mode}) exited with code {out.returncode}")
    return start, (json.loads(out.stdout.splitlines()[-1]) if mode == "setup" else None)


def end_to_end(child: dict, setups: list[float]) -> dict:
    warm = [p["wall_s"] for p in child["passes"][1:]]
    return {
        "wall_s": statistics.median(warm),
        "cold_pass_s": child["passes"][0]["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_kib"] / 1024.0,
    }


def per_layer(child: dict) -> dict:
    traced = [p["wall_s"] for p in child["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in child["passes"][1:] if not p["traced"]]
    m = dict(child["per_layer"])
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


def self_time_table(self_times: dict) -> str:
    lines = [f"{'span':<40} {'calls':>8} {'self_s':>10}"]
    for name, row in sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<40} {int(row['calls']):>8} {row['self_s']:>10.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(HERE / "out" / "results"),
                    help="directory for the full per-run record")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gowers_lab" / "__init__.py").is_file() or \
            not workloads.GOLDEN_OUTPUT.is_file():
        sys.stderr.write(f"no gowers_lab source tree under {ROOT}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "out" / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload]
        manifest = {"workload": wl.name, "seed": args.seed, **wl.generate(args.seed, work)}
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            start, ready = spawn(manifest_path, "setup", 0)
            setups.append(ready["ready"] - start)
        mode = "trace" if args.trace else "measure"
        start, _ = spawn(manifest_path, mode, args.seconds)
        child = json.loads((work / "child-result.json").read_text())
        setups.append(child["ready"] - start)

        attempted = len(child["jobs"]) * len(child["passes"])
        failed = len({(f["pass"], f["job"]) for f in child["failures"]})
        if args.trace:
            traces = HERE / "out" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "spans.jsonl", traces / f"{tag}-spans.jsonl")
            table = self_time_table(child["self_times"])
            (traces / f"{tag}-selftime.txt").write_text(table + "\n")
            print(table)
            computed = per_layer(child)
            kinds = spec["per_layer"]
        else:
            computed = end_to_end(child, setups)
            kinds = spec["end_to_end"]
        metrics = {k["name"]: {"value": computed[k["name"]], "unit": k["unit"]} for k in kinds}

        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit(), "machine": machine(),
            "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
            "failures": child["failures"], "metrics": metrics, "setup_samples_s": setups,
            "passes": child["passes"],
        }
        if args.trace:
            record["self_times"] = child["self_times"]
        results = Path(args.results)
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
        for f in child["failures"][:10]:
            print(f"FAILED pass {f['pass']} job {f['job']}: {f['reason']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
