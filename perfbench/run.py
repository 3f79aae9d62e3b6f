"""Benchmark of the quenched-limits CLI: end-to-end and per-layer metrics.

Run from the repository root:

  python3 perfbench/run.py --workload clt-lsv --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all            # table of every workload
  python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json
  python3 perfbench/run.py --pin-reference           # re-record reference digests

Each repetition of a workload runs in a fresh interpreter (rep.py), one
process at a time, against the package sources in ``src/``.  With
``--trace 0`` repetitions run untraced until ``--seconds`` is used up and the
median of each end-to-end metric is reported.  With ``--trace 1`` one traced
repetition gives the per-layer metrics, next to untraced ones for the
tracing overhead and, at the reference seed, the artifact drift.  The last
stdout line is the JSON result; per-repetition detail goes to
``perfbench/.out/<workload>/``.
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
from importlib import metadata
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
REFERENCE = HERE / "reference.json"
REP_TIMEOUT_S = 170
# The package is single-threaded; one thread per BLAS/OpenMP pool keeps
# numpy's thread pools from competing with the measured process.
THREAD_CAPS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
# By default glibc unmaps large freed arrays and moves its mmap threshold as
# it goes: on a 2-core Xeon VM with glibc 2.36, identical clt-lsv repetitions
# took 0.1M to 0.64M page faults and 2.8 s to 3.9 s, and the Brownian chunks of
# fclt-doubling cost 2 s of page zeroing.  With both thresholds fixed above
# every array the package allocates, freed memory is reused and repetitions
# repeat.
MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(2 << 30)}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_CAPS, **MALLOC, PYTHONPATH=str(SRC))
    return env


def run_rep(workload: str, seed: int, out: Path, trace: bool, run_id: int) -> dict:
    """Run one repetition in a fresh interpreter and return its rep.json."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    started = time.perf_counter()
    args = {"workload": workload, "seed": seed, "out": str(out), "trace": trace,
            "run_id": run_id, "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    proc = subprocess.run([sys.executable, str(HERE / "rep.py"), json.dumps(args)],
                          env=child_env(), stdout=sys.stderr, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition {run_id} exited with {proc.returncode}")
    rep = json.loads((out / "rep.json").read_text())
    if not Path(rep["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"benchmarked {rep['package']}, not the package under {SRC}")
    rep.update(seed=seed, trace=trace, elapsed=time.perf_counter() - started)
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one run, their failure count and metrics."""
    deadline = time.perf_counter() + seconds
    base = OUT / workload
    shutil.rmtree(base, ignore_errors=True)
    plan = [(seed, False)]
    if trace:
        plan.append((seed, True))
        if seed != spec.REFERENCE_SEED:
            plan.append((spec.REFERENCE_SEED, False))   # for the drift count
    reps = []
    for rep_seed, traced in plan:
        reps.append(run_rep(workload, rep_seed, base / f"rep{len(reps)}", traced, len(reps)))
    while True:
        longest = max(r["elapsed"] for r in reps if not r["trace"])
        if time.perf_counter() + longest > deadline:
            break
        reps.append(run_rep(workload, seed, base / f"rep{len(reps)}", False, len(reps)))

    at_seed = [r for r in reps if r["seed"] == seed]
    first = {op["subcommand"]: op["digests"] for op in at_seed[0]["ops"]}
    for rep in at_seed[1:]:
        for op in rep["ops"]:
            if op["digests"] != first[op["subcommand"]]:
                op["problems"].append("artifacts differ from the first repetition")
    ops = [op for rep in reps for op in rep["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    untraced = [r for r in at_seed if not r["trace"]]

    if trace:
        traced = next(r for r in reps if r["trace"])
        at_ref = next(r for r in reps if r["seed"] == spec.REFERENCE_SEED and not r["trace"])
        metrics = {**traced["layers"],
                   "cli.bytes_written": sum(op["bytes"] for op in traced["ops"]),
                   "cli.artifact_drift": artifact_drift(workload, at_ref),
                   "trace.overhead_s": traced["wall_s"]
                   - statistics.median(r["wall_s"] for r in untraced)}
        units = dict(spec.PER_LAYER)
    else:
        metrics = {name: statistics.median(r[name] for r in untraced)
                   for name, *_ in spec.END_TO_END}
        units = {name: unit for name, unit, *_ in spec.END_TO_END}
    return {
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "problems": sorted({p for op in ops for p in op["problems"]}),
        "repetitions": [{k: r[k] for k in ("seed", "trace", "wall_s", "setup_s", "peak_rss_mb")}
                        for r in reps],
    }


def artifact_drift(workload: str, rep: dict) -> int:
    """Artifacts whose sha256 differs from the pinned reference-seed digests."""
    pinned = json.loads(REFERENCE.read_text())[workload]
    found = {f"{op['subcommand']}/{name}": sha
             for op in rep["ops"] for name, sha in op["digests"].items()}
    return sum(1 for key in pinned.keys() | found.keys() if pinned.get(key) != found.get(key))


def env_stamp() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "thread_caps": THREAD_CAPS,
        "malloc": MALLOC,
        "load": "one benchmark process at a time",
    }


def pin_reference():
    digests = {}
    for workload in spec.WORKLOADS:
        rep = run_rep(workload, spec.REFERENCE_SEED, OUT / workload / "pin", False, 0)
        bad = [p for op in rep["ops"] for p in op["problems"]]
        if bad:
            raise RuntimeError(f"{workload} fails its checks, not pinning: {bad}")
        digests[workload] = {f"{op['subcommand']}/{name}": sha
                             for op in rep["ops"] for name, sha in op["digests"].items()}
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=spec.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    parser.add_argument("--pin-reference", action="store_true",
                        help="record reference-seed artifact digests and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json_text())
        return 0
    if not (SRC / "quenched_limits" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.pin_reference:
        pin_reference()
        return 0

    stamp = env_stamp()
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        res = measure(workload, args.seed, args.seconds, bool(args.trace))
        (OUT / workload / "result.json").write_text(
            json.dumps({"workload": workload, "seed": args.seed, "trace": args.trace,
                        "env": stamp, **res}, indent=1))
        print(f"{workload}: fail_frac {res['failed'] / res['attempted']:.4g} ratio "
              f"({res['failed']}/{res['attempted']} operations failed)")
        for name, m in res["metrics"].items():
            print(f"{workload}: {name} {m['value']:.6g} {m['unit']}")
        for problem in res["problems"]:
            print(f"{workload}: FAILED {problem}")
        results[workload] = res
    print("env " + json.dumps(stamp, sort_keys=True))
    summary = {w: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
               for w, r in results.items()}
    print(json.dumps(summary if args.workload == "all" else summary[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
