"""ibcfock benchmark: run one workload in a fresh child process.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from src/ as it
stands, so nothing needs installing.  Workloads: flow, dense, scan (see
perfbench/README.md).

--trace 0 runs the workload once, untraced, for --seconds of passes and
reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs it
untraced and then traced with the same seed, one pass each, and reports
the per-layer metrics plus trace.overhead_s, the traced minus the
untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the run
information (machine, versions, seed, schema).  The full record of each
child, and the spans of a traced run, go to .bench_out/ in the
repository root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

SCHEMA_VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 175.0          # all children of one invocation together
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a nonnegative integer")
    return value


def machine_info():
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = (_read(os.path.join(base, entry, "level")) or "").strip()
        kind = (_read(os.path.join(base, entry, "type")) or "").strip()
        size = (_read(os.path.join(base, entry, "size")) or "").strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "caches": caches,
            "platform": platform.platform()}


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_child(workload, seed, seconds, trace, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    result = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, **BLAS_ENV,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--result", result]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail(f"{workload} (trace {trace}) did not finish within the deadline")
    if proc.returncode != 0 or not os.path.exists(result):
        fail(f"{workload} (trace {trace}) exited with code {proc.returncode}")
    with open(result) as fh:
        record = json.load(fh)
    if "refused" in record:
        fail(f"{workload} refused: {record['refused']}", code=3)
    return result, record


def main(argv=None):
    spec_text = _read(os.path.join(ROOT, "BENCHMARK.json"))
    if spec_text is None:
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_text)

    p = argparse.ArgumentParser(description="ibcfock benchmark (one workload)")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ibcfock", "__init__.py")):
        fail(f"no ibcfock sources under {os.path.join(ROOT, 'src')}; "
             "run from a checkout of the repository")

    # the per-layer figures are per pass or per call, so one pass each
    # is enough for a traced comparison
    seconds = 0 if args.trace else args.seconds
    children = [run_child(args.workload, args.seed, seconds, 0, deadline)]
    untraced = children[0][1]
    if args.trace:
        children.append(run_child(args.workload, args.seed, seconds, 1, deadline))
        traced = children[1][1]
        values = dict(traced["layer_metrics"])
        values["trace.overhead_s"] = (traced["metrics"]["wall_s"]
                                      - untraced["metrics"]["wall_s"])
        wanted = spec["per_layer"]
    else:
        values = untraced["metrics"]
        wanted = spec["end_to_end"]

    info = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "machine": machine_info(), "software": untraced["software"],
        "records": [os.path.relpath(path, ROOT) for path, _rec in children],
    }
    records = [rec for _path, rec in children]
    for path, rec in children:
        rec["run_info"] = info
        with open(path, "w") as fh:
            json.dump(rec, fh, indent=1)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
