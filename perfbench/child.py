"""One fresh interpreter of the benchmark: import raca.cli, run one job, exit.

    python3 perfbench/child.py JOB.json

The import is timed first, before anything else is loaded.  The job names a
mode; timings and outputs go to the job's result file, never to stdout, which
belongs to the CLI command in "cli" mode.

In "cli" mode the child stands in for `python -m raca.cli ARGV`, so that one
cold process yields the command's wall time, its import time and its
in-process `main()` time together.  Beyond raca's own imports it loads only
`resource` and this directory's tracer, and reads and writes one small JSON
file each; against `python -m raca.cli lob 0.5 --json` the difference in
cold wall time was within run-to-run noise (median paired difference -10 ms,
quartiles -53 and +42 ms, over 20 alternating pairs on a 2-vCPU host).
"""

import sys
import time

_t0 = time.perf_counter()
import raca.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402

# by module name: the package re-exports a function called `lobachevsky`
census, polyhedra, arithmeticity, lobachevsky, volumes, errors = (
    sys.modules[f"raca.{name}"]
    for name in ("census", "polyhedra", "arithmeticity", "lobachevsky", "volumes", "errors"))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# -- batch workloads: one call per operation, through module attributes so that
# an installed tracer sees every call --------------------------------------------


def op_theorem(op):
    return census.verify_minimality(condition3_reading=op["reading"]).to_dict()


def op_polyhedra(op):
    P = polyhedra
    p = P.load_polyhedron(op["poly"])
    try:
        profile = P.validate(p)
    except errors.PolyhedronError as exc:
        return {"reject": exc.code}
    stats = P.face_statistics(p)
    cert = P.canonical_form(p)
    result = P.andreev_check(p)
    rebuilt = P.polyhedron_from_certificate(cert)
    return {"profile": [profile.v_inf, profile.v_f, profile.e, profile.f],
            "stats": {"p": {str(k): v for k, v in sorted(stats.p.items())},
                      "w": stats.w, "wi": stats.wi},
            "cert": cert, "andreev": [result.passed, result.condition],
            "rebuilt": [rebuilt.vertex_count, len(rebuilt.faces)]}


def op_arith(op):
    A = arithmeticity
    gram, gram_s = _timed(A.gram_from_coxeter, A.load_coxeter({"size": op["n"], "m": op["m"]}))
    full, full_s = _timed(A.is_arithmetic_noncocompact, gram)
    bounded, bounded_s = _timed(A.is_arithmetic_noncocompact, gram, 3)
    return {"default": full.to_dict(), "bounded": bounded.to_dict(),
            "gram_s": gram_s, "default_s": full_s, "bounded_s": bounded_s}


BATCH = {"theorem": op_theorem, "polyhedra-large": op_polyhedra, "arith": op_arith}


def run_batch(job, tracer):
    run = BATCH[job["workload"]]
    ops = []
    t_round = time.perf_counter()
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = run(op)
        except Exception as exc:  # counted as a failed operation by the parent
            out = {"error": f"{type(exc).__name__}: {exc}"}
        ops.append({"s": time.perf_counter() - t0, "out": out})
    return {"ops": ops, "work_s": time.perf_counter() - t_round}


def run_cli(job, tracer):
    t0 = time.perf_counter()
    try:
        code = raca.cli.main(job["argv"])
    except Exception:  # what `python -m raca.cli` would do: traceback, exit 1
        traceback.print_exc()
        code = 1
    return {"exit": code, "main_s": time.perf_counter() - t0}


# -- probes for the layers no workload round measures directly ------------------


def _per_call(fn, args_list):
    """Median over five passes of the mean time per call, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    times.sort()
    return times[len(times) // 2]


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("raca") and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_probe(job, tracer):
    L = lobachevsky
    _, first_s = _timed(L.lobachevsky_quadrature, job["first_theta"])
    thetas = [(t,) for t in job["thetas"]]
    out = {
        "quadrature_first_s": first_s,
        "series_s": _per_call(L.lobachevsky_series, thetas),
        "quadrature_s": _per_call(L.lobachevsky_quadrature, thetas[:40]),
        "checks": [[t, L.lobachevsky_series(t).value, L.lobachevsky_series(t).abs_error_bound,
                    L.lobachevsky_quadrature(t).value, L.lobachevsky_quadrature(t).abs_error_bound]
                   for t in job["check_thetas"]],
    }
    V = volumes
    out["volumes_s"] = {
        "orthoscheme": _per_call(V.orthoscheme_volume, job["ortho"]),
        "lobell": _per_call(V.lobell_volume, [(n,) for n in job["family_n"] if n >= 5]),
        "antiprism": _per_call(V.antiprism_volume, [(n,) for n in job["family_n"]]),
        "named": _per_call(V.named_volume, [(n,) for n in job["names"]]),
    }
    # warm CLI calls: the first call loads whatever is lazy, caches are then
    # cleared so the timed call repeats the command's work
    main_s = []
    sink = io.StringIO()
    for kind, argv in job["commands"]:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            raca.cli.main(argv)
            _clear_caches()
            t0 = time.perf_counter()
            raca.cli.main(argv)
            main_s.append([kind, time.perf_counter() - t0])
        sink.seek(0)
        sink.truncate()
    out["main_s"] = main_s
    return out


def run_fanout(job, tracer):
    census.enumerate_types((3, 2))  # warm-up outside the timing
    _, serial = _timed(census.enumerate_types, (2, 8), workers=1)
    _, fanout = _timed(census.enumerate_types, (2, 8), workers=2)
    return {"serial_s": serial, "fanout_s": fanout}


MODES = {"batch": run_batch, "cli": run_cli, "probe": run_probe, "fanout": run_fanout}


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(raca.__file__).startswith(src + os.sep):
        sys.exit(f"child: imported raca from {raca.__file__}, not from {src}")
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    try:
        result = MODES[job["mode"]](job, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_s"] = SETUP_S
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.write(job["spans"])
    sys.stdout.flush()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
