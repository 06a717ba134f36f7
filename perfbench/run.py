"""swiptkit benchmark: run one workload through the `swiptkit` CLI, check its
outputs, and print its metrics.

    python3 perfbench/run.py --workload learned_link --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout (it builds nothing: `swiptkit` is
imported from the checkout's ``src/``). The run process is a fresh
interpreter started by this script (``worker.py``); set-up is sampled in
further fresh interpreters. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Outputs land in ``perfbench/out/<workload>/``. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5           # fresh interpreters timed per run, the run process included
TIME_LIMIT_S = 170.0        # every process this script starts ends within this


def _spawn(args, mode: str, out: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its result.json."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), "--mode", mode]
    with open(out / "worker.log", "w") as log:
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)], cwd=out, stdout=log,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"run.py: {mode} process exceeded the time limit")
    if rc != 0:
        raise SystemExit(f"run.py: {mode} process exited {rc}; see {out / 'worker.log'}")
    return json.loads((out / "result.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src" / "swiptkit"
    if not (src / "__init__.py").is_file():
        print(f"run.py: no swiptkit sources under {src.parent}", file=sys.stderr)
        return 2
    # byte-compile up front so that no set-up sample pays for it
    compileall.compile_dir(str(src), quiet=1)

    base = HERE / "out" / args.workload
    setup = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            setup.append(_spawn(args, "setup", base / f"setup{k}", deadline)["setup_s"])
    out = base / "run"
    result = _spawn(args, "run", out, deadline)
    setup.append(result["setup_s"])

    import checks
    ops = workloads.operations(args.workload, args.seed, "eh_fixture.json")
    rounds = result["rounds"]
    passed, lines, missed = checks.check_workload(args.workload, out, ops, args.seed)

    correct, failed = True, 0
    for op_index, op in enumerate(ops):
        recs = [r["ops"][op_index] for r in rounds]
        same = all(r["sha256"] == recs[0]["sha256"] for r in recs)
        if not same:
            lines.append(f"  FAIL {op.name}: outputs differ between rounds")
        for rec in recs:
            ok = rec["rc"] == 0 and same and passed.get(op.name, False)
            if not ok:
                failed += 1
                if not op.known_fault:
                    correct = False
                    lines.append(f"  FAIL {op.name}: exit code {rec['rc']}" if rec["rc"]
                                 else f"  FAIL {op.name}: output check failed")
    for kind in missed:
        correct = False
        lines.append(f"  FAIL self-test: {kind} accepted a deliberately wrong output")

    walls = [r["wall_s"] for r in rounds]
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s) of {len(ops)} "
          f"operations, wall {statistics.median(walls):.3f} s"
          f"{' (traced)' if args.trace else ''}")
    print("\n".join(lines))
    print(f"  self-test: {len(missed)} of the check kinds used accepted a wrong output")

    if args.trace:
        import tracer
        units = tracer.metric_units()
        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(ops) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
