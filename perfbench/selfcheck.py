#!/usr/bin/env python3
"""Sensitivity self-check: do the workloads separate the layers?

    python3 perfbench/selfcheck.py

Runs verify_cpu and hot_serve on the same RUNS seeds twice: as committed,
and with a per-request DiskThrottle latency of LATENCY_US added to every
workload's store (the binary's --inject-latency-us). It compares the
medians of qps and p50_ms against the bounds in BENCHMARK.json, exactly as
a regression gate would. The check
passes (exit 0) when the injected storage latency is flagged on verify_cpu,
whose loads reach the store, and not on hot_serve, whose data is resident
in a warmed buffer pool.
"""

import json
import statistics
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after disabling .pyc output)

CHECKED = ("qps", "p50_ms")
RUNS = 3
SECONDS = 10
# Per modeled storage request. Every modeled request also pays the sleep's
# timer slack (about 50 us here), so the smallest injections already cost
# verify_cpu about a quarter of its qps; 150 us clears the 25% bounds with
# room to spare on a slow host phase.
LATENCY_US = 150


def metrics_of(workload, seed, latency_us):
    code, out = run.run_binary(workload, seed, SECONDS, 0, latency_us,
                               capture=True)
    if code != 0:
        sys.exit(f"selfcheck: {workload} seed {seed} exited {code}")
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def worsening(metric, base, slow):
    """Relative change in the bad direction (positive = worse)."""
    if metric["better"] == "lower":
        return (slow - base) / base
    return (base - slow) / base


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    if not run.build():
        return 3

    flagged = {}
    for workload in ("verify_cpu", "hot_serve"):
        base, slow = [], []
        for seed in range(1, RUNS + 1):
            base.append(metrics_of(workload, seed, 0))
            slow.append(metrics_of(workload, seed, LATENCY_US))
        for name in CHECKED:
            b = statistics.median(r[name] for r in base)
            s = statistics.median(r[name] for r in slow)
            change = worsening(specs[name], b, s)
            flagged[(workload, name)] = change > specs[name]["bound"]
            print(f"{workload:12s} {name:8s} base {b:12.4f} injected "
                  f"{s:12.4f} worse by {100 * change:6.1f}% (bound "
                  f"{100 * specs[name]['bound']:.0f}%) -> "
                  f"{'FLAGGED' if flagged[(workload, name)] else 'within'}")
    ok = all(flagged[("verify_cpu", m)] for m in CHECKED) and not any(
        flagged[("hot_serve", m)] for m in CHECKED)
    print("sensitivity self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
