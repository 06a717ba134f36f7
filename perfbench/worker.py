"""One run process: import `swiptkit` once, put the workload's inputs in place,
then run whole rounds of the workload's CLI operations until the run length
is reached. Writes ``result.json`` into its output directory.

Started by run.py, never imported. ``--mode setup`` stops after set-up, so
run.py can take several set-up samples per run.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _run_op(main, op) -> int:
    try:
        return int(main(list(op.argv)))
    except SystemExit as err:              # argparse usage errors
        return err.code if isinstance(err.code, int) else 2
    except Exception:                      # a crash counts as a failed operation
        traceback.print_exc()
        return 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=["run", "setup"], default="run")
    ap.add_argument("--t0-ns", dest="t0_ns", type=int, required=True,
                    help="CLOCK_MONOTONIC time at which run.py started this process")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import swiptkit
    import swiptkit.cli
    if Path(swiptkit.__file__).resolve().parent != ROOT / "src" / "swiptkit":
        print(f"worker: swiptkit imported from {swiptkit.__file__}, not from src/",
              file=sys.stderr)
        return 2
    import workloads

    out = Path(args.out)
    shutil.copyfile(ROOT / workloads.FIXTURE, out / "eh_fixture.json")
    ops = workloads.operations(args.workload, args.seed, "eh_fixture.json")
    (out / "inputs.json").write_text(json.dumps([op.argv for op in ops], indent=1))
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0_ns) / 1e9

    result = {"setup_s": setup_s}
    if args.mode == "run":
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, swiptkit)
        rounds = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.round = len(rounds)
            w0, c0 = time.perf_counter(), time.process_time()
            records = []
            for op in ops:
                rc = _run_op(swiptkit.cli.main, op)
                records.append({"name": op.name, "rc": rc,
                                "sha256": [_sha256(out / p) for p in op.outputs]})
            rounds.append({"wall_s": time.perf_counter() - w0,
                           "cpu_s": time.process_time() - c0, "ops": records})
            if time.perf_counter() - start >= args.seconds:
                break
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(out / "spans.json")
            result["layers"] = tracing.layer_metrics(tracer, len(rounds))
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
