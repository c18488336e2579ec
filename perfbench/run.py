"""raca benchmark: cold CLI latency, theorem time, polyhedra and arithmeticity.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a raca checkout.  One parent process (this one) runs one
child interpreter at a time, so load is a closed loop with a single client.
Each child imports `raca.cli` from `src/` and times that import itself.  The
parent repeats rounds of the workload until `--seconds` have passed (at least
one round), then checks every output against an oracle off the timed path.

--trace 0 prints the end-to-end metrics (see BENCHMARK.json).  --trace 1
instead runs one round untraced and one traced on the same inputs, plus the
probes for layers that round does not reach, and prints the per-layer
metrics.  Spans go to .perfbench/spans/.  The last line of stdout is the
result object; the line before it records the environment and sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import ARITH_SIZES, READINGS, WORKLOADS, cli_round  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 170  # every run ends within 180 s
PAIRS = ((2, 4), (2, 6), (2, 8), (3, 2), (3, 4))
REJECT_CODES = ("bad_index", "bad_face", "edge_face_count", "multi_adjacent_faces",
                "disconnected", "not_3_connected", "bad_degree", "euler")
CLI_KINDS = ("lob", "volume", "bounds", "check", "arith", "census", "malformed")
CHECK_KINDS = ("check", "arith", "malformed")  # CLI commands that check one input


def median(values, scale=1.0):
    """Scaled median; NaN for no samples, which the self-check reports."""
    values = list(values)
    return scale * statistics.median(values) if values else math.nan


def p90_index(n):
    """0-based nearest-rank 90th percentile, ceil(0.9 n) - 1, in integers."""
    return (9 * n + 9) // 10 - 1


def tail_index(n):
    """0-based rank of the tail: the highest percentile with at least ten
    samples above it, but never below the nearest-rank 90th percentile, so
    that a run with few samples still reports its slow end (the maximum,
    below 10 samples)."""
    return max(n - 11, p90_index(n))


def tail_rule(n):
    rule = "ten above" if n - 11 >= p90_index(n) else "nearest-rank p90"
    return f"{rule}: rank {tail_index(n) + 1} of {n}"


def tail(values):
    xs = sorted(values)
    return xs[tail_index(len(xs))]


class Session:
    """Children, their temporary files and the run's deadline."""

    def __init__(self, workload, seed):
        os.makedirs(OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
        self.spans_dir = os.path.join(OUT, "spans", f"{workload}-seed{seed}")
        shutil.rmtree(self.spans_dir, ignore_errors=True)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("RACA_THREADS", "RACA_LOG", "PYTHONPATH")}
        self.env["PYTHONPATH"] = SRC
        # one string-hash layout for every child: with random layouts the
        # same census took from 1.7 to 2.4 s in fresh interpreters
        self.env["PYTHONHASHSEED"] = "0"

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def path(self, name):
        self.count += 1
        return os.path.join(self.tmp, f"{self.count}-{name}")

    def _spawn(self, argv):
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RuntimeError("run deadline passed")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"child {argv[2:]} passed the run deadline")
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out, err, time.perf_counter() - t0

    def child(self, job, trace=False):
        """Run child.py on one job; returns the child's record."""
        job = dict(job, src=SRC, trace=trace, result=self.path("result.json"))
        if trace:
            os.makedirs(self.spans_dir, exist_ok=True)
            job["spans"] = os.path.join(self.spans_dir, f"{self.count}.jsonl")
        job_path = self.path("job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        code, out, err, wall = self._spawn([sys.executable, CHILD, job_path])
        try:
            with open(job["result"]) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
        return {"exit": code, "stdout": out, "stderr": err, "wall_s": wall, "result": result}

    def importtime(self):
        code, out, err, wall = self._spawn(
            [sys.executable, "-X", "importtime", "-c", "import raca.cli"])
        if code != 0:
            raise RuntimeError(f"import raca.cli failed: {err[-300:]}")
        return err


# -- one round ---------------------------------------------------------------------


def cli_argv(session, op):
    """The command line of a CLI operation, with its input file written out."""
    if op["file"] is None:
        return op["argv"]
    path = session.path("input.json")
    with open(path, "w") as fh:
        json.dump(op["file"], fh)
    return [path if a == "{file}" else a for a in op["argv"]]


def run_round(session, wl, ops, trace=False, stop_at=None):
    """Execute one round; returns per-op (op, out, seconds) and child samples.

    On the CLI an operation, as elsewhere one polyhedron or diagram checked,
    is a `check` or `arith check` command, timed whole from spawn to exit as
    its user waits for it; other commands get NaN seconds.  A command's
    main() alone (5 to 25 ms, a fifth apart between identical cold runs) is
    too short a sample for a steady tail of so few operations.  The round's
    work is the sum of the main() times of all its commands.  A CLI round
    starts no command after `stop_at` and is then incomplete."""
    rows, children = [], []
    complete = True
    if wl.kind == "cli":
        for op in ops:
            if stop_at is not None and time.perf_counter() >= stop_at:
                complete = False
                break
            rec = session.child({"mode": "cli", "argv": cli_argv(session, op)}, trace)
            out = {"exit": rec["exit"], "stdout": rec["stdout"], "stderr": rec["stderr"]}
            rows.append((op, out, rec["wall_s"] if op["kind"] in CHECK_KINDS else math.nan))
            children.append(rec)
        work = sum(c["result"]["main_s"] if c["result"] else math.nan for c in children)
    else:
        rec = session.child({"mode": "batch", "workload": wl.name, "ops": ops}, trace)
        children.append(rec)
        res = rec["result"]
        if res is None:
            reason = f"child exited {rec['exit']}: {rec['stderr'].strip()[-200:]}"
            rows = [(op, {"error": reason}, math.nan) for op in ops]
            work = math.nan
        else:
            rows = [(op, r["out"], r["s"]) for op, r in zip(ops, res["ops"])]
            work = res["work_s"]
    return {"rows": rows, "work_s": work, "children": children, "complete": complete}


def check_rows(wl, rows, failures):
    """Apply the oracle to every operation; returns the number that failed."""
    failed = 0
    for op, out, _ in rows:
        if out is None or "error" in out:
            reason = (out or {}).get("error", "no output")
        else:
            try:
                reason = wl.check(op, out)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed output: {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            failures.append(f"{wl.name}: {reason}")
    return failed


# -- untraced run: end-to-end metrics ---------------------------------------------------


def measure(session, wl, seed, seconds):
    rounds = []
    stop_at = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < stop_at:
        ops = wl.make_round(seed, len(rounds))
        rounds.append(run_round(session, wl, ops, stop_at=stop_at if rounds else None))
    children = [c for r in rounds for c in r["children"]]
    results = [c["result"] for c in children if c["result"]]
    rows = [row for r in rounds for row in r["rows"]]
    # a CLI run ends inside a round; its last commands would make the mix of
    # operations, and so their percentiles, depend on the seed
    latencies = [s for r in rounds if r["complete"] for _, _, s in r["rows"]
                 if not math.isnan(s)]
    works = [r["work_s"] for r in rounds if r["complete"] and not math.isnan(r["work_s"])]
    if not results or not latencies or not works:
        raise RuntimeError("no child of the run produced a result")
    metrics = {
        "setup_s": (median(r["setup_s"] for r in results), "s"),
        "cmd_p50_s": (median(c["wall_s"] for c in children), "s"),
        "cmd_tail_s": (tail(c["wall_s"] for c in children), "s"),
        "work_s": (median(works), "s"),
        "op_p50_ms": (median(latencies, 1e3), "ms"),
        "op_tail_ms": (1e3 * tail(latencies), "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024, "MB"),
    }
    samples = {"rounds": len(rounds), "cmd": len(children), "setup": len(results),
               "op": len(latencies), "work": len(works),
               "tail_cmd": tail_rule(len(children)), "tail_op": tail_rule(len(latencies)),
               "work_s": works, "cmd_s": [c["wall_s"] for c in children],
               "setup_s": [r["setup_s"] for r in results]}
    return [(wl, rows)], metrics, samples


# -- traced run: per-layer metrics --------------------------------------------------

# the layers a workload's own round reaches; the others come from a traced
# round of the layer's home workload
OWN_LAYERS = {"cli-cold": {"polyhedra"}, "theorem": {"census", "polyhedra"},
              "polyhedra-large": {"polyhedra"}, "arith": {"arith"}}
HOME = {"census": "theorem", "arith": "arith", "polyhedra": "polyhedra-large"}


def merge_traces(children):
    spans = defaultdict(lambda: [0, 0, 0])
    counts = defaultdict(int)
    for c in children:
        trace = (c["result"] or {}).get("trace") or {"spans": [], "counts": []}
        for ctx, name, calls, total, self_ns in trace["spans"]:
            row = spans[(ctx, name)]
            row[0] += calls
            row[1] += total
            row[2] += self_ns
        for ctx, name, n in trace["counts"]:
            counts[(ctx, name)] += n
    return spans, counts


def polyhedra_metrics(spans, counts):
    m = {}
    for fn in ("validate", "canonical_form", "andreev_check", "prismatic_circuits",
               "face_statistics", "polyhedron_from_certificate"):
        calls, _, self_ns = spans.get(("", f"polyhedra.{fn}"), (0, 0, 0))
        m[f"polyhedra.{fn}.calls"] = (calls, "count")
        m[f"polyhedra.{fn}.self_ms"] = (self_ns / 1e6, "ms")
    for code in REJECT_CODES:
        m[f"polyhedra.validate.reject.{code}"] = (
            counts.get(("", f"polyhedra.validate.reject.{code}"), 0), "count")
    return m


def census_metrics(spans, counts):
    """Per-pair times and realizable counts for both readings, and the funnel
    (leaves -> connected -> certificates -> types -> realizable) per pair and
    in total, counted under the default reading."""
    m = {}
    totals = defaultdict(int)
    funnel = ("leaves", "connected", "certificates", "types", "realizable", "nonplanar",
              *(f"reject.{code}" for code in REJECT_CODES))
    for vi, vf in PAIRS:
        key = f"pair_{vi}_{vf}"
        for reading in READINGS:
            ctx = f"{key}.{reading}"
            m[f"census.{key}.{reading}_s"] = (
                spans.get((ctx, "census.enumerate_types"), (0, 0, 0))[1] / 1e9, "s")
            m[f"census.{key}.realizable.{reading}"] = (counts.get((ctx, "realizable"), 0), "count")
        ctx = f"{key}.{READINGS[0]}"
        pair = {
            "leaves": spans.get((ctx, "networkx.is_connected"), (0,))[0],
            "connected": spans.get((ctx, "networkx.check_planarity"), (0,))[0],
            "types": spans.get((ctx, "polyhedra.polyhedron_from_certificate"), (0,))[0],
            "realizable": counts.get((ctx, "realizable"), 0),
            "nonplanar": counts.get((ctx, "nonplanar"), 0),
        }
        for code in REJECT_CODES:
            pair[f"reject.{code}"] = counts.get((ctx, f"polyhedra.validate.reject.{code}"), 0)
        # a connected planar leaf that validate accepts gets a certificate
        pair["certificates"] = pair["connected"] - pair["nonplanar"] - sum(
            pair[f"reject.{code}"] for code in REJECT_CODES)
        for name in ("leaves", "connected", "certificates", "types"):
            m[f"census.{key}.{name}"] = (pair[name], "count")
        for name in funnel:
            totals[name] += pair[name]
    for name in funnel:
        m[f"census.{name}"] = (totals[name], "count")
    networkx_ns = sum(spans.get(("", f"networkx.{fn}"), (0, 0))[1]
                      for fn in ("is_connected", "check_planarity"))
    m["census.networkx_ms"] = (networkx_ns / 1e6, "ms")
    m["census.backtrack_self_ms"] = (
        spans.get(("", "census.enumerate_types"), (0, 0, 0))[2] / 1e6, "ms")
    return m


def arith_metrics(untraced_rows, counts, samples):
    ok = [(op, out) for op, out, _ in untraced_rows if "default" in out]
    cycles = sum(out["default"]["cycles_checked"] + out["bounded"]["cycles_checked"]
                 for _, out in ok)
    m = {"arith.cycles_checked": (cycles, "count")}
    by_n = defaultdict(list)
    for op, out in ok:
        by_n[op["n"]].append(out["default_s"])
    for n in ARITH_SIZES:
        m[f"arith.check_ms.n{n}"] = (median(by_n[n], 1e3), "ms")
    m["arith.bounded_ms"] = (median((out["bounded_s"] for _, out in ok), 1e3), "ms")
    m["arith.gram_us"] = (median((out["gram_s"] for _, out in ok), 1e6), "us")
    samples["arith.check_ms"] = {f"n{n}": len(by_n[n]) for n in ARITH_SIZES}
    samples["arith.bounded_ms"] = samples["arith.gram_us"] = len(ok)
    m["surd.mul_calls"] = (counts.get(("", "surd.mul"), 0), "count")
    return m


def parse_importtime(stderr):
    """Cumulative import seconds of raca, scipy and networkx from -X importtime.

    Lines come in post-order with nesting shown by indentation, so a module's
    parent is the next line with less indentation.  A package's time is the
    sum over its outermost entries.
    """
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    totals = defaultdict(int)
    for i, (cum, depth, name) in enumerate(entries):
        top = name.split(".")[0]
        parent = next((e for e in entries[i + 1:] if e[1] < depth), None)
        if parent is None or parent[2].split(".")[0] != top:
            totals[top] += cum
    return {top: totals[top] / 1e6 for top in ("raca", "scipy", "networkx")}


def probe_job(session, seed):
    rng = random.Random(f"probe:{seed}")
    normal = [rng.choice((1, -1)) * rng.uniform(0.01, 10.0) for _ in range(200)]
    large = [rng.choice((1, -1)) * 10 ** rng.uniform(6, 16) for _ in range(8)]
    commands = [[op["kind"], cli_argv(session, op)] for op in cli_round(seed, 0)]
    return {
        "mode": "probe",
        "first_theta": normal[0],
        "thetas": normal,
        "check_thetas": normal[:16] + large,
        "ortho": [(math.pi / 3, math.pi / 4, math.pi / 4), (math.pi / 4,) * 3,
                  (math.pi / 6, math.pi / 3, math.pi / 4)],
        "family_n": list(range(3, 41)),
        "names": ["P32", "P28", "P34", "Delta344", "Delta444", "DeltaPrime344"],
        "commands": commands,
    }


def probe_metrics(result, samples):
    m = {
        "lobachevsky.series_us": (1e6 * result["series_s"], "us"),
        "lobachevsky.quadrature_us": (1e6 * result["quadrature_s"], "us"),
        "lobachevsky.quadrature_first_ms": (1e3 * result["quadrature_first_s"], "ms"),
    }
    violations = 0
    for theta, sv, sb, qv, qb in result["checks"]:
        ref = oracles.lob_ref(theta)
        violations += (not oracles.within(sv, ref, sb)) + (not oracles.within(qv, ref, qb))
    m["lobachevsky.bound_violations"] = (violations, "count")
    for kind, s in result["volumes_s"].items():
        m[f"volumes.{kind}_us"] = (1e6 * s, "us")
    by_kind = defaultdict(list)
    for kind, s in result["main_s"]:
        by_kind[kind].append(s)
    for kind in CLI_KINDS:
        m[f"cli.main_ms.{kind}"] = (median(by_kind[kind], 1e3), "ms")
    samples["cli.main_ms"] = {kind: len(by_kind[kind]) for kind in CLI_KINDS}
    return m


def traced(session, wl, seed):
    """One untraced and one traced round of the workload plus probes.

    Returns the (workload, rows) pairs to check, the per-layer metrics and
    the sample count behind each median."""
    ops = wl.make_round(seed, 0)
    plain = run_round(session, wl, ops)
    spanned = run_round(session, wl, ops, trace=True)
    checked = [(wl, plain["rows"]), (wl, spanned["rows"])]
    metrics = {
        "trace.untraced_work_s": (plain["work_s"], "s"),
        "trace.traced_work_s": (spanned["work_s"], "s"),
        "trace.overhead_s": (spanned["work_s"] - plain["work_s"], "s"),
    }
    own = OWN_LAYERS[wl.name]
    passes = {layer: spanned for layer in own}
    plain_by_layer = {layer: plain for layer in own}
    for layer in ("polyhedra", "census", "arith"):
        if layer in own:
            continue
        home = WORKLOADS[HOME[layer]]
        home_ops = home.min_round(seed, 0)
        if layer == "arith":  # op timings come from an untraced round
            plain_by_layer[layer] = run_round(session, home, home_ops)
            checked.append((home, plain_by_layer[layer]["rows"]))
        passes[layer] = run_round(session, home, home_ops, trace=True)
        checked.append((home, passes[layer]["rows"]))

    metrics.update(polyhedra_metrics(*merge_traces(passes["polyhedra"]["children"])))
    metrics.update(census_metrics(*merge_traces(passes["census"]["children"])))
    _, counts = merge_traces(passes["arith"]["children"])
    samples = {"spans": os.path.relpath(session.spans_dir, ROOT)}
    metrics.update(arith_metrics(plain_by_layer["arith"]["rows"], counts, samples))

    probe = session.child(probe_job(session, seed))
    if probe["result"] is None:
        raise RuntimeError(f"probe child failed: {probe['stderr'][-300:]}")
    metrics.update(probe_metrics(probe["result"], samples))

    fan = session.child({"mode": "fanout"})
    if fan["result"] is None:
        raise RuntimeError(f"fan-out child failed: {fan['stderr'][-300:]}")
    metrics["census.fanout_2_8_speedup"] = (
        fan["result"]["serial_s"] / fan["result"]["fanout_s"], "x")

    imports = [parse_importtime(session.importtime()) for _ in range(3)]
    for top in ("raca", "scipy", "networkx"):
        metrics[f"import.{top}_s"] = (median(i[top] for i in imports), "s")
    samples["import"] = len(imports)
    return checked, metrics, samples


# -- output ------------------------------------------------------------------------


def host_loop_ms():
    """Median time of a fixed pure-Python loop: the host's speed at the moment.

    Recorded at the start and end of each run so that a shift in the host's
    speed can be told apart from a change in raca."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return median(times, 1e3)


def environment(args, samples):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WORKLOADS[args.workload].why,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "scipy": version("scipy"), "networkx": version("networkx"),
        "mpmath": version("mpmath"), "commit": git_commit(), "samples": samples,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "raca", "cli.py")):
        print(f"perfbench: no raca sources under {SRC}; run from a raca checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "raca"), quiet=1)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = WORKLOADS[args.workload]
    host_start = host_loop_ms()
    session = Session(wl.name, args.seed)
    try:
        if args.trace:
            checked, metrics, samples = traced(session, wl, args.seed)
        else:
            checked, metrics, samples = measure(session, wl, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()

    samples["host_loop_ms"] = [host_start, host_loop_ms()]
    failures = []
    failed = sum(check_rows(w, rows, failures) for w, rows in checked)
    attempted = sum(len(rows) for _, rows in checked)
    if args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, samples)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
