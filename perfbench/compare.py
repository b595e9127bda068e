#!/usr/bin/env python3
"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by perfbench/run.py (its
<build>/results/ directory, copied aside per commit). For every workload
and metric the script prints each side's median and quartiles, the change
of the medians and, for end-to-end metrics, whether it stays within the
bound BENCHMARK.json fixes. It refuses (exit 2) to compare result sets
whose build flavour (build type, flags, compiler) or SIMD backend differ,
within a set or between the two.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

FLAVOUR = ("build_type", "cxx_flags", "compiler", "simd_backend")


def load(directory):
    runs = defaultdict(list)
    flavours = set()
    for p in sorted(Path(directory).glob("*.json")):
        doc = json.loads(p.read_text())
        meta = doc["meta"]
        flavours.add(tuple(meta.get(k) for k in FLAVOUR))
        runs[(meta["workload"], meta["trace"])].append(doc["result"])
    return runs, flavours


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    bench = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, fa = load(sys.argv[1])
    change, fb = load(sys.argv[2])
    if len(fa) != 1 or fa != fb:
        print("refusing to compare: build flavour or SIMD backend differs",
              file=sys.stderr)
        for f in sorted(fa | fb, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(FLAVOUR, f)),
                  file=sys.stderr)
        sys.exit(2)
    worse = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'end-to-end'}), "
              f"{len(base[key])} vs {len(change[key])} runs")
        if not all(r["correct"] for r in base[key] + change[key]):
            print("   WARNING: some runs failed their correctness checks")
        names = base[key][0]["metrics"].keys()
        for name in names:
            a = [r["metrics"][name]["value"] for r in base[key]]
            b = [r["metrics"][name]["value"] for r in change[key]
                 if name in r["metrics"]]
            if not b:
                continue
            a1, am, a3 = spread(a)
            b1, bm, b3 = spread(b)
            rel = (bm - am) / am if am else 0.0
            verdict = ""
            if name in e2e:
                m = e2e[name]
                loss = -rel if m["better"] == "higher" else rel
                verdict = "ok" if loss <= m["bound"] else "WORSE"
                worse += verdict == "WORSE"
            unit = base[key][0]["metrics"][name]["unit"]
            print(f"   {name:40s} {am:12.5g} [{a1:.5g}, {a3:.5g}] -> "
                  f"{bm:12.5g} [{b1:.5g}, {b3:.5g}] {unit:6s} "
                  f"{100 * rel:+7.2f}% {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
