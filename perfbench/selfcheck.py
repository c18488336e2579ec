"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a raca checkout.  For every workload it makes a
minimum-size untraced pass and a minimum-size traced pass, and checks that
each prints exactly the metrics BENCHMARK.json declares, by name and unit,
with finite values.  It then corrupts outputs of those passes (a flipped
certificate, a wrong verdict, a wrong exit code) and checks that every
corrupted operation is counted as failed.  Exits 1 on any problem.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def corrupt(name, op, out):
    """A wrong copy of one correct output, or None if it has nothing to break."""
    out = copy.deepcopy(out)
    if name == "cli-cold":
        out["exit"] = 1 if out["exit"] != 1 else 0
    elif name == "theorem":
        out["verified"] = not out["verified"]
    elif name == "polyhedra-large":
        if "cert" in out:
            out["cert"] = out["cert"][:-1] + ("0" if out["cert"][-1] != "0" else "1")
        else:
            out["reject"] = "euler" if out["reject"] != "euler" else "bad_degree"
    else:
        out["default"]["arithmetic"] = not out["default"]["arithmetic"]
    return out


def check_metrics(declared, got, where, problems):
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif name not in want:
            problems.append(f"{where}: metric {name} is not declared")
        elif got[name][1] != want[name]:
            problems.append(f"{where}: {name} has unit {got[name][1]}, declared {want[name]}")
        elif not math.isfinite(got[name][0]):
            problems.append(f"{where}: {name} = {got[name][0]}")
        else:
            print(f"  {name} = {got[name][0]:.6g} {got[name][1]}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {w["name"]: w["why"] for w in bench["workloads"]}
    if declared != {name: w.why for name, w in WORKLOADS.items()}:
        print("BENCHMARK.json and workloads.py name different workloads or reasons")
        return 1
    problems = []
    for name, full in WORKLOADS.items():
        wl = dataclasses.replace(full, make_round=full.min_round)
        session = run.Session(f"selfcheck-{name}", 0)
        try:
            print(f"{name}: untraced")
            checked, metrics, _ = run.measure(session, wl, 0, 0)
            check_metrics(bench["end_to_end"], metrics, f"{name} untraced", problems)
            print(f"{name}: traced")
            _, layer_metrics, _ = run.traced(session, wl, 0)
        finally:
            session.close()
        genuine = run.check_rows(wl, checked[0][1], [])
        print(f"{name}: {genuine} operation(s) of the untraced pass failed their oracle")
        layer_metrics["failed_ratio"] = (0.0, "ratio")  # main() adds it after the checks
        check_metrics(bench["per_layer"], layer_metrics, f"{name} traced", problems)

        rows = [(op, corrupt(name, op, out), s) for op, out, s in checked[0][1]
                if "error" not in out]
        caught = run.check_rows(wl, rows, [])
        print(f"{name}: {caught} of {len(rows)} corrupted outputs counted as failed")
        if caught != len(rows) or not rows:
            problems.append(f"{name}: only {caught} of {len(rows)} corrupted outputs failed")
    for p in problems:
        print("PROBLEM", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
