"""The measured process of one workload run; started by run.py.

    python3 child.py MANIFEST MODE SECONDS

MODE is ``setup`` (set up, report when ready, exit), ``measure`` (untraced
passes) or ``trace`` (untraced and traced passes alternately).  Set-up is
everything before the first job can run: importing the package, building
the CLI parser and loading the inputs through ``serialize``.  The process
writes its result as JSON to ``child-result.json`` beside the manifest.
"""
import json
import sys
import time


def setup(manifest_path):
    import numpy as np
    from gowers_lab import cli, serialize

    cli.build_parser()
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    inputs = {}
    for key, path in manifest["functions"].items():
        with open(path) as fh:
            inputs[key] = serialize.function_from_json(json.load(fh))
    for key, path in manifest["tuples"].items():
        with open(path) as fh:
            inputs[key] = [([serialize.function_from_json(f) for f in t["fs"]], t["lams"])
                           for t in json.load(fh)]
    for key, path in manifest["arrays"].items():
        inputs[key] = np.load(path)
    return manifest, inputs


def main(manifest_path, mode, seconds):
    manifest, inputs = setup(manifest_path)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    import gc
    import resource
    import statistics
    from pathlib import Path

    import tracing
    import workloads

    work = Path(manifest_path).parent
    wl = workloads.WORKLOADS[manifest["workload"]]
    jobs = wl.jobs(inputs, manifest, work)
    tracer = tracing.Tracer() if mode == "trace" else None
    passes = []  # {"id", "traced", "wall_s", "job_s", "summaries"}

    def run_pass(traced):
        pass_id = len(passes)
        summaries, job_s = {}, {}
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        for name, fn in jobs:
            # collected between jobs, untimed, so that no job's peak memory
            # depends on when the collector last ran in an earlier one
            gc.collect()
            t = time.perf_counter()
            try:
                raw = tracer.run(f"job.{name}", fn) if traced else fn()
            except Exception as exc:  # a failing job is counted, never fatal
                raw = workloads.JobError(exc)
            job_s[name] = time.perf_counter() - t
            summaries[name] = raw
        wall = sum(job_s.values())
        if traced:
            tracer.remove()
        for name, raw in summaries.items():
            if not isinstance(raw, workloads.JobError):
                summaries[name] = wl.summarize(name, raw, work, pass_id)
        passes.append({"id": pass_id, "traced": traced, "wall_s": wall,
                       "job_s": job_s, "summaries": summaries})
        return wall

    # pass 0 is the cold pass; later passes run while the next one is
    # predicted to end within `seconds` of the cold pass's start
    elapsed = run_pass(False)
    while True:
        if mode == "trace":
            step = run_pass(True) + run_pass(False)
        else:
            step = run_pass(False)
        elapsed += step
        if elapsed + step > seconds:
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # oracle checks, outside every timed section
    ref = wl.oracle(inputs, manifest)
    failures = []
    for p in passes:
        s = p.pop("summaries")
        errors = {name: raw.reason for name, raw in s.items()
                  if isinstance(raw, workloads.JobError)}
        try:
            errors = {**wl.check(inputs, manifest, ref, s), **errors}
        except Exception as exc:  # a raised job can leave its partners uncheckable
            errors.update({name: f"unchecked: {type(exc).__name__}: {exc}"
                           for name in s if name not in errors})
        failures += [{"pass": p["id"], "job": job, "reason": r} for job, r in errors.items()]

    result = {"ready": ready, "passes": passes, "jobs": [name for name, _ in jobs],
              "peak_rss_kib": peak_rss_kib, "failures": failures}
    if tracer is not None:
        tables = [tracer.self_times(p["id"]) for p in passes if p["traced"]]
        result["self_times"] = tracing.median_table(tables)
        per_pass = [tracing.per_layer_metrics(t) for t in tables]
        result["per_layer"] = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        tracer.write(work / "spans.jsonl")
    with open(work / "child-result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
