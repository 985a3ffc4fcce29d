#!/usr/bin/env python3
"""bench_e2e_smoke: every workload on the smoke presets, untraced and traced.

Each run must exit 0, pass every correctness check, and end with a result
object holding exactly the metrics BENCHMARK.json lists for that mode, with
their units; end-to-end values must be positive. Traced runs must also write
a Chrome trace.

    smoke_check.py --bench path/to/bench_e2e --benchmark path/to/BENCHMARK.json
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg: str) -> None:
    sys.exit("bench_e2e_smoke: " + msg)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--seconds", default="0.5")
    args = ap.parse_args()
    cat = json.loads(Path(args.benchmark).read_text())

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for w in (x["name"] for x in cat["workloads"]):
            for trace in ("0", "1"):
                out = Path(tmp) / f"{w}-{trace}.json"
                p = subprocess.run(
                    [args.bench, "--workload", w, "--seed", "1", "--seconds",
                     args.seconds, "--trace", trace, "--smoke", "1",
                     "--benchmark", args.benchmark, "--out", str(out)],
                    capture_output=True, text=True, timeout=100)
                where = f"{w} trace={trace}"
                if p.returncode != 0:
                    fail(f"{where}: exit {p.returncode}\n{p.stdout}{p.stderr}")
                res = json.loads(p.stdout.strip().splitlines()[-1])
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    fail(f"{where}: result keys {sorted(res)}")
                if not res["correct"] or res["attempted"] < 1 or res["failed"]:
                    fail(f"{where}: {res['correct']=} {res['attempted']=} "
                         f"{res['failed']=}")
                want = cat["per_layer" if trace == "1" else "end_to_end"]
                got = res["metrics"]
                if list(got) != [m["name"] for m in want]:
                    fail(f"{where}: metric names differ from BENCHMARK.json")
                for m in want:
                    v = got[m["name"]]
                    if v["unit"] != m["unit"]:
                        fail(f"{where}: {m['name']} unit {v['unit']}")
                    if trace == "0" and not v["value"] > 0:
                        fail(f"{where}: {m['name']} is not positive")
                report = json.loads(out.read_text())
                bad = [k for k, c in report["checks"].items() if not c["pass"]]
                if bad:
                    fail(f"{where}: failed checks {bad}")
                if trace == "1":
                    doc = json.loads(Path(report["trace_file"]).read_text())
                    if not doc["traceEvents"]:
                        fail(f"{where}: empty trace")
                print(f"ok {where}: {len(report['checks'])} checks, "
                      f"{res['attempted']} ops")


if __name__ == "__main__":
    main()
