"""Record golden.json: the input and artifact digests every run checks.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run it only at a commit whose outputs are trusted (the digests in the
repository were recorded at the commit that introduced the benchmark);
every later run checks its artifacts byte for byte against them.  It runs
one pass of every workload on each of the VARIANTS inputs, and one smoke
pass, through the same code as run.py.  Naming workloads re-records only
those and keeps the other entries of the existing file, so that adding a
workload later leaves the digests of the existing ones as first recorded.
"""

import json
import sys
import time

import run
import workloads as wl


def record(workload, seed, params):
    d, info = run.prepare(workload, seed, params)
    _, results = run.run_pass(workload, d, time.perf_counter() + run.RUN_DEADLINE_S)
    status = wl.artifact_status(d, workload)
    bad = [detail for code, detail in results if code != 0]
    bad += [f"{a}: {problem or 'missing'}" for a, (digest, problem) in status.items()
            if problem or digest is None]
    if bad:
        raise SystemExit(f"{workload.name} seed {seed}: {bad}")
    return {"input": info, "artifacts": {a: digest for a, (digest, _) in status.items()}}


def main():
    names = sys.argv[1:] or list(wl.WORKLOADS)
    golden = run.load_golden() if sys.argv[1:] else {"workloads": {}, "smoke": {}}
    golden["variants"] = wl.VARIANTS
    for name in names:
        workload, params = wl.WORKLOADS[name], wl.SMOKE_PARAMS[name]
        golden["smoke"][name] = {"params": params, **record(workload, wl.SMOKE_SEED, params)}
    for name in names:
        workload = wl.WORKLOADS[name]
        variants = {}
        for v in range(wl.VARIANTS):
            variants[str(v)] = record(workload, v, None)
            print(f"{name} variant {v}: {variants[str(v)]['input']}", flush=True)
        golden["workloads"][name] = {
            "params": workload.params,
            "argv": workload.argv(),
            "variants": variants,
        }
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
