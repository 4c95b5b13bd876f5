"""tracelang benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of decide-mod2, decide-path, verify-certs, equiv-lab, or ``all``.
Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in a fresh interpreter (``worker.py``), one at
a time.  ``all`` runs every workload once, in turn, so that repeated
invocations interleave the workloads and a slow spell of the machine does
not land on one workload's consecutive runs.

Prints a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  A workload process that crashed or timed out counts as one
attempted and failed operation of that workload, with ``correct`` false.
Exits 0 when every workload process ran to its end, 1 when one crashed, 2
when the source tree or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decide-mod2", "decide-path", "verify-certs", "equiv-lab")
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload in a fresh interpreter; a crash or a timeout comes back
    as ``{"crash": reason}``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"no result within {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"crash": f"exit code {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def describe(result: dict, units: dict) -> list[str]:
    lines = [
        f"{result['workload']}: {result['rounds']} rounds x {result['ops_per_round']} operations,"
        f" {result['attempted']} attempted, {result['failed']} failed,"
        f" recursion limit {result['recursion_limit'][0]} -> {result['recursion_limit'][1]}"
    ]
    for kind, (count, reason) in sorted(result["failures"].items()):
        lines.append(f"  failed {count} x {kind}: {reason}")
    for label in ("self_test_misjudged", "not_pristine"):
        if result[label]:
            lines.append(f"  {label}: {', '.join(result[label])}")
    for name, value in result.get("report", {}).items():
        lines.append(f"  {name:<44} {value if value is not None else 'n/a (too few samples)'}")
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<44} {value} {units.get(name, '')}")
    if "spans_file" in result:
        lines.append(f"  spans written to {result['spans_file']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tracelang" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no tracelang source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_worker(name, args.seed, args.seconds, args.trace)
        result["workload"] = name
        results.append(result)
        if "crash" in result:
            print(f"{name}: workload process crashed ({result['crash']})", flush=True)
        else:
            print("\n".join(describe(result, units)), flush=True)

    crashed = [r for r in results if "crash" in r]
    done = [r for r in results if "crash" not in r]
    metrics = {}
    for r in done:
        for m in wanted:
            if m["name"] not in r["metrics"]:
                print(f"{r['workload']} did not measure {m['name']}", file=sys.stderr)
                return 1
            key = m["name"] if len(names) == 1 else f"{r['workload']}.{m['name']}"
            metrics[key] = {"value": r["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": not crashed and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done) + len(crashed),
        "failed": sum(r["failed"] for r in done) + len(crashed),
        "metrics": metrics,
    }))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
