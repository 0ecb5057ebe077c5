"""Benchmark of the convexa CLI: three closed-loop workloads, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare-clustered --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload convexity-er --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

With `--trace 0` the run generates the workload's input from the seed,
then repeats passes of real CLI invocations (`python -m convexa ...`, one
fresh interpreter each, one at a time) for `--seconds` seconds, checks
every primary artifact against the golden sha256 digests in golden.json,
and reports the end-to-end metrics:

    wall_s       median wall time of one pass (all its CLI invocations)
    setup_s      median time for a fresh interpreter to import convexa.cli
                 and load the workload's input (one probe after each pass,
                 at least 5)
    peak_rss_mb  largest max-RSS of any CLI child (getrusage RUSAGE_CHILDREN)

The error rate is `failed / attempted` in the result line: an invocation
fails on a non-zero exit, a missing artifact, a digest mismatch or a
failed content check.

With `--trace 1` the run instead executes the pass in-process through
`convexa.cli.main(argv)` in one child interpreter, once untraced and once
with every public function of the program's modules wrapped (traced.py),
and reports the per-layer metrics derived from the spans.

`--smoke` runs every workload once on tiny inputs and checks the digests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traced
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

#: fewest set-up probes a run takes
SETUP_PROBES = 5
#: fewest passes a run takes (budget permitting): a single pass of
#: coauthor-centrality can take half of a 30-second run, and the median of
#: one pass follows every stall of the host
MIN_PASSES = 2
#: a run must end within 180 s; no new pass starts after this many seconds
PASS_BUDGET_S = 110.0
RUN_DEADLINE_S = 170.0

PROBE = """\
import sys
import convexa.cli
from convexa.coauthor import read_papers_csv
from convexa.graph import read_edge_tsv
path = sys.argv[1]
{load}
"""

INFO = """\
import importlib.metadata, json, os, platform
import convexa
try:
    import numba
    numba_imports = True
except ImportError:
    numba_imports = False
def version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None
print(json.dumps({"backend": convexa.BACKEND, "numba_imports": numba_imports,
                  "numpy": version("numpy"), "scipy": version("scipy"),
                  "python": platform.python_version(), "nproc": os.cpu_count()}))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Tally:
    """Attempted and failed invocations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, error):
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload, seed, params=None):
    """Write the seed's input into a fresh work directory; returns (dir, info)."""
    d = WORK / workload.name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    text, info = workload.make_input(seed, params)
    data = text.encode("utf-8")
    (d / workload.input_name).write_bytes(data)
    info["sha256"] = wl.sha256(data)
    return d, info


def judge(workload, results, status, expected, tally):
    """Count each invocation as attempted, and as failed when it exited
    non-zero or any of its artifacts is missing, wrong or malformed."""
    for (argv, artifacts), (code, detail) in zip(workload.invocations, results):
        error = f"{argv[0]}: exit {code}: {detail}" if code != 0 else None
        for a in artifacts:
            digest, problem = status[a]
            if error:
                break
            if digest is None:
                error = f"{argv[0]}: missing artifact {a}"
            elif digest != expected.get(a):
                error = f"{argv[0]}: digest mismatch on {a}"
            elif problem:
                error = f"{argv[0]}: {problem}"
        tally.record(error)


def run_pass(workload, d, deadline):
    """One pass of CLI invocations; returns (wall seconds, [(exit, detail)])."""
    for _, artifacts in workload.invocations:
        for a in artifacts:
            (d / a).unlink(missing_ok=True)
    env = child_env()
    results = []
    t0 = time.perf_counter()
    for argv, _ in workload.invocations:
        try:
            r = subprocess.run(
                [sys.executable, "-m", "convexa", *argv],
                cwd=d, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - time.perf_counter()),
            )
            results.append((r.returncode, r.stderr.strip()[-300:]))
        except subprocess.TimeoutExpired:
            results.append((-1, "timed out"))
    return time.perf_counter() - t0, results


def environment(d, deadline):
    """Backend, numba, library versions, Python and nproc, as one fresh
    interpreter sees them; this also warms the caches before timing."""
    r = subprocess.run(
        [sys.executable, "-c", INFO], cwd=d, env=child_env(), capture_output=True,
        text=True, timeout=max(1.0, deadline - time.perf_counter()),
    )
    if r.returncode != 0:
        raise RuntimeError(f"environment probe failed: {r.stderr.strip()[-300:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def setup_probe(workload, d, deadline):
    """Wall time of one fresh interpreter importing convexa.cli and loading
    the workload's input."""
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-c", PROBE.format(load=workload.load), workload.input_name],
        cwd=d, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.perf_counter()),
    )
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {r.stderr.strip()[-300:]}")
    return wall


def prepare_checked(workload, seed, golden):
    """prepare(), plus the golden record of the seed's variant; raises when
    the input differs from the one the digests were recorded on."""
    d, info = prepare(workload, seed)
    spec = golden["workloads"].get(workload.name, {})
    same = spec.get("params") == workload.params and spec.get("argv") == workload.argv()
    expected = spec.get("variants", {}).get(str(seed % wl.VARIANTS)) if same else None
    if expected is None or expected["input"]["sha256"] != info["sha256"]:
        raise RuntimeError(
            f"{workload.name}: no golden digests for this input; "
            "golden.json was recorded on other inputs or another workload definition"
        )
    return d, info, expected


def measure(workload, seed, seconds, golden, t_start):
    d, info, expected = prepare_checked(workload, seed, golden)
    deadline = t_start + RUN_DEADLINE_S
    env = environment(d, deadline)
    tally = Tally()
    walls, setups = [], []
    t0 = time.perf_counter()
    # One set-up probe after each pass spreads the probes over the run; past
    # MIN_PASSES, no cycle starts that would end past `seconds`.
    while True:
        wall, results = run_pass(workload, d, deadline)
        judge(workload, results, wl.artifact_status(d, workload), expected["artifacts"], tally)
        walls.append(wall)
        setups.append(setup_probe(workload, d, deadline))
        elapsed = time.perf_counter() - t0
        done = len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > seconds
        if done or time.perf_counter() - t_start > PASS_BUDGET_S:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, d, deadline))
    # probes load no more than a CLI child does, so the peak is a CLI child's
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    record = {"workload": workload.name, "seed": seed, "variant": seed % wl.VARIANTS,
              "input": info, "env": env, "passes": walls, "setups": setups,
              "errors": tally.errors}
    return tally, metrics, record


def measure_traced(workload, seed, seconds, golden, t_start):
    d, info, expected = prepare_checked(workload, seed, golden)
    env = environment(d, t_start + RUN_DEADLINE_S)
    r = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), "--workload", workload.name,
         "--workdir", str(d), "--seconds", str(seconds)],
        env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, t_start + RUN_DEADLINE_S - time.perf_counter()),
    )
    if r.returncode != 0:
        raise RuntimeError(f"traced run failed: {r.stderr.strip()[-600:]}")
    out = json.loads((d / "trace_result.json").read_text(encoding="utf-8"))
    tally = Tally()
    for p in out["passes"]:
        judge(workload, p["results"], p["status"], expected["artifacts"], tally)
    metrics = {
        name: {"value": value, "unit": traced.UNITS[name]}
        for name, value in out["metrics"].items()
    }
    record = {"workload": workload.name, "seed": seed, "variant": seed % wl.VARIANTS,
              "input": info, "env": env, "untraced_walls": out["untraced_walls"],
              "traced_walls": out["traced_walls"], "trace_overhead_s": out["overhead_s"],
              "bypassed": sorted(name for name, value in out["metrics"].items() if value == 0),
              "spans": str(d / "spans.jsonl"), "errors": tally.errors}
    return tally, metrics, record


def smoke(golden):
    """Every workload once on its tiny input; True when all digests match."""
    ok = True
    for name, workload in wl.WORKLOADS.items():
        params = wl.SMOKE_PARAMS[name]
        d, info = prepare(workload, wl.SMOKE_SEED, params)
        expected = golden["smoke"].get(name, {})
        if expected.get("params") != params or expected.get("input", {}).get("sha256") != info["sha256"]:
            print(f"{name}: FAIL (no golden digests recorded for this smoke input)")
            ok = False
            continue
        tally = Tally()
        _, results = run_pass(workload, d, time.perf_counter() + RUN_DEADLINE_S)
        judge(workload, results, wl.artifact_status(d, workload), expected["artifacts"], tally)
        print(f"{name}: {'ok' if tally.failed == 0 else 'FAIL ' + '; '.join(tally.errors)}")
        ok = ok and tally.failed == 0
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, every workload once")
    args = ap.parse_args()
    t_start = time.perf_counter()
    if not (SRC / "convexa" / "__init__.py").is_file():
        print(f"error: no convexa sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    if args.smoke:
        return 0 if smoke(golden) else 1
    if args.workload is None:
        ap.error("--workload is required")
    workload = wl.WORKLOADS[args.workload]
    run = measure_traced if args.trace else measure
    try:
        tally, metrics, record = run(workload, args.seed, args.seconds, golden, t_start)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "trace_overhead_s" in record:
        print(f"trace_overhead_s = {record['trace_overhead_s']:.6g} s (traced minus untraced pass)")
    print(f"error_rate = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g} (failed/attempted)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
