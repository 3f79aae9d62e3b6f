"""One repetition of a workload in a fresh interpreter, started by run.py.

Usage: python3 rep.py '<json: workload, seed, out, spawned_at, trace, run_id>'

``spawned_at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` covers interpreter start, the package
import and config parsing.  ``wall_s`` runs from the first subcommand's
start to the last manifest written; the checks run after it.  The result
goes to ``<out>/rep.json``.
"""

import json
import sys
import time


def main() -> int:
    args = json.loads(sys.argv[1])
    from quenched_limits import cli
    import spec

    out = args["out"]
    ops = [(sub, spec.cli_argv(sub, overrides, args["seed"], f"{out}/{sub}"))
           for sub, overrides in spec.WORKLOADS[args["workload"]][1]]
    for _, argv in ops:   # the same key=value parse cli.main performs
        cli.load_config(None, [(argv[i][2:], argv[i + 1])
                               for i in range(1, len(argv) - 2, 2)])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args["spawned_at"]

    import contextlib
    import resource
    import traceback
    from pathlib import Path

    import checks
    from tracer import Tracer

    tracer = None
    if args["trace"]:
        tracer = Tracer(args["run_id"])
        tracer.install()
    codes = []
    t0 = time.perf_counter()
    for sub, argv in ops:
        with tracer.span(f"cli.{sub}") if tracer else contextlib.nullcontext():
            try:
                codes.append(cli.main(argv))
            except Exception:   # the CLI process would exit 1 with this traceback
                traceback.print_exc()
                codes.append(1)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "package": cli.__file__, "ops": []}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(spec.SUBCOMMANDS)
        result["spans"] = len(tracer.start)
        tracer.save(Path(out) / "spans.npz")
    for (sub, _), code in zip(ops, codes):
        sub_out = Path(out) / sub
        problems, digests = checks.check_run(sub, sub_out, code)
        nbytes = sum((sub_out / name).stat().st_size for name in digests)
        result["ops"].append({"subcommand": sub, "problems": problems,
                              "digests": digests, "bytes": nbytes})
    Path(out, "rep.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
