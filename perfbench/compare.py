#!/usr/bin/env python3
"""Compares two sets of saved benchmark results (run.py --out FILE).

    python3 perfbench/compare.py --base a1.json a2.json ... --change b1.json b2.json ...

Every file must come from the same workload, scale and trace mode, and from
the same host: CPU model, nproc, compiler and build type must all match, or
the comparison is refused (exit 3). The commit and source digest may differ;
they are what is being compared and are printed.

For each metric it prints both sides' median and quartiles and the change of
the medians. With BENCHMARK.json at the checkout root, an end-to-end metric
whose median got worse by more than its bound is flagged REGRESSION, and one
whose base runs spread wider than the bound is flagged UNRESOLVED. A gain is
never claimed here: see the choosing-metrics rules in perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu", "nproc", "compiler", "build_type")
SAME_KEYS = ("workload", "scale", "trace")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = ap.parse_args()
    base, change = load(args.base), load(args.change)
    everything = base + change
    ref = everything[0]
    for r in everything[1:]:
        for k in HOST_KEYS:
            if r["fingerprint"].get(k) != ref["fingerprint"].get(k):
                print(f"refusing to compare: fingerprint '{k}' differs "
                      f"({ref['fingerprint'].get(k)!r} vs {r['fingerprint'].get(k)!r})",
                      file=sys.stderr)
                return 3
        for k in SAME_KEYS:
            if r.get(k) != ref.get(k):
                print(f"refusing to compare: '{k}' differs ({ref.get(k)!r} vs {r.get(k)!r})",
                      file=sys.stderr)
                return 3
    bounds = {}
    if os.path.exists(args.benchmark):
        with open(args.benchmark) as f:
            spec = json.load(f)
        bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    for side, runs in (("base", base), ("change", change)):
        commits = sorted({(r["fingerprint"]["commit"], r["fingerprint"]["source_digest"])
                          for r in runs})
        seeds = sorted({r["seed"] for r in runs})
        failed = sum(r["failed"] for r in runs)
        print(f"{side}: {len(runs)} runs, seeds {seeds}, code {commits}, failed {failed}")
    print(f"host: {json.dumps({k: ref['fingerprint'][k] for k in HOST_KEYS})}")
    print(f"workload {ref['workload']} (scale {ref['scale']}, trace {ref['trace']})")
    print(f"{'metric':<30} {'base q1/med/q3':>34} {'change q1/med/q3':>34} {'change':>8}")
    status = 0
    for name in ref["metrics"]:
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        qa, qb = quartiles(a), quartiles(b)
        rel = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        note = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = rel if bounds[name]["better"] == "lower" else -rel
            if qa[1] and (qa[2] - qa[0]) / qa[1] > bound:
                note = "UNRESOLVED"
            elif worse > bound:
                note = "REGRESSION"
                status = 1
        fmt = "{:>10.4g} {:>10.4g} {:>10.4g}   "
        print(f"{name:<30} {fmt.format(*qa)} {fmt.format(*qb)} {100 * rel:+7.1f}% {note}")
    return status


if __name__ == "__main__":
    sys.exit(main())
