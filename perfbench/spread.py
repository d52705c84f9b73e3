"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py

Runs the benchmark untraced on seeds 1-10 for every workload in
BENCHMARK.json and prints, per workload and metric, the median and the
interquartile range as a share of the median (quartiles from
``statistics.quantiles(values, n=4)``), next to the metric's bound. A spread
above a third of its bound is flagged. The values are kept in
``.perfbench_work/spread.json``; when that file holds an earlier set, each
median is also compared with the earlier one, and a drift beyond the bound
in the worse direction is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SAVED = os.path.join(ROOT, ".perfbench_work", "spread.json")


def run_set(bench: dict) -> dict:
    """{workload: {metric: [value per seed], "interference": [...]}}"""
    out: dict[str, dict[str, list[float]]] = {}
    for w in (x["name"] for x in bench["workloads"]):
        values = out.setdefault(w, {"interference": []})
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed")
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            host = next(line for line in proc.stderr.splitlines() if line.startswith("host "))
            values["interference"].append(json.loads(host[5:])["interference_median"])
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if os.path.exists(SAVED):
        with open(SAVED) as f:
            earlier = json.load(f)
    now = run_set(bench)
    os.makedirs(os.path.dirname(SAVED), exist_ok=True)
    with open(SAVED, "w") as f:
        json.dump(now, f)
    worst = 0.0
    for w, values in now.items():
        busy = values.pop("interference")
        print(f"== {w}  (run's median window interference: median "
              f"{statistics.median(busy):.3f}, max {max(busy):.3f})")
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            bound = spec[k]["bound"]
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            line = (f"{k:24s} median {med:12.4f}  spread {spread:6.3f}  "
                    f"bound {bound}{'  HIGH' if spread > bound / 3 else ''}")
            if earlier is not None and k in earlier.get(w, {}):
                before = statistics.median(earlier[w][k])
                drift = med / before - 1.0
                if spec[k]["better"] == "higher":
                    drift = -drift
                line += f"  worse than earlier set by {drift:+.3f}"
                if drift > bound:
                    line += "  DRIFT"
            print(line)
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
