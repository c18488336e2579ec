"""Command-line frontend.

Exit codes: 0 success or pass, 2 mathematical failure (a check or
verification that ran and came out false), 3 input error, 4 resource
limit.  All output is deterministic; --json switches any subcommand to a
stable JSON schema with sorted keys.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale on first use, which build_parser() is;
# importing it here keeps that cost at import time instead of inside main()
import locale  # noqa: F401
import math
import re
import sys

from .arithmeticity import gram_from_coxeter, is_arithmetic_noncocompact, load_coxeter
from .census import CandidatePair, enumerate_types, verify_minimality
from .errors import DomainError, PolyhedronError, ResourceLimitError
from .lobachevsky import lobachevsky
from .polyhedra import (
    READING_DISJOINT,
    READING_DISTINCT,
    andreev_check,
    face_statistics,
    load_polyhedron,
    validate,
)
from .volumes import (
    antiprism_volume,
    atkinson_bounds_compact,
    atkinson_bounds_ideal,
    lobell_volume,
    mixed_bounds,
    named_volume,
    orthoscheme_volume,
)

_ANGLE = re.compile(r"^(-?)pi/(\d+)$")
# argparse takes a negative value for an option unless it is a plain decimal
# such as -0.5; these are the other negated angles parse_angle reads
_NEGATED = re.compile(r"-(?:pi(?:/|$)|inf|nan|[0-9.])", re.IGNORECASE)

_ARITH_CAVEAT = ("note: the criterion assumes a non-cocompact reflection group; "
                 "that hypothesis is not verified here")


def parse_angle(text) -> float:
    """Angle literal: a decimal number, `pi`, or `pi/<k>` (optionally negated)."""
    s = str(text).strip()
    m = _ANGLE.match(s)
    if m:
        try:
            k = int(m.group(2))
            value = math.pi / k
        except ZeroDivisionError:
            raise DomainError("angle pi/0 is not a number") from None
        except (ValueError, OverflowError):  # too many digits for int() or a float
            raise DomainError(
                f"angle denominator of {len(m.group(2))} digits is out of range") from None
        return -value if m.group(1) else value
    if s in ("pi", "-pi"):
        return -math.pi if s.startswith("-") else math.pi
    try:
        return float(s)
    except ValueError:
        raise DomainError(f"cannot parse angle {s!r}: use a decimal or pi/<k>")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _precision_type(text) -> int:
    """argparse type of --precision: checked on every command, --json included."""
    try:
        prec = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if prec < 0 or prec > 12:
        raise argparse.ArgumentTypeError("must be between 0 and 12")
    return prec


def _precision(args, default: int) -> int:
    return default if args.precision is None else args.precision


def _cmd_lob(args) -> int:
    theta = parse_angle(args.theta)
    result = lobachevsky(theta)
    if args.json:
        _emit({"theta": theta, "value": result.value,
               "error_bound": result.abs_error_bound})
    else:
        print(f"{result.value:.{_precision(args, 12)}f}")
    return 0


def _cmd_volume(args) -> int:
    kind = args.volume_kind
    if kind == "orthoscheme":
        report = orthoscheme_volume(
            parse_angle(args.alpha), parse_angle(args.beta), parse_angle(args.gamma))
    elif kind == "lobell":
        report = lobell_volume(args.n)
    elif kind == "antiprism":
        report = antiprism_volume(args.n)
    else:
        report = named_volume(args.name)
    if args.json:
        _emit({"value": report.value, "formula": report.formula,
               "error_bound": report.abs_error_bound})
    else:
        prec = _precision(args, 6)
        print(f"{report.value:.{prec}f}  ({report.formula})")
    return 0


def _cmd_bounds(args) -> int:
    kind = args.bounds_kind
    if kind == "compact":
        pair = atkinson_bounds_compact(args.vertices)
    elif kind == "ideal":
        pair = atkinson_bounds_ideal(args.vertices)
    else:
        pair = mixed_bounds(args.videal, args.vfinite)
    if args.json:
        _emit({"lower": pair.lower, "upper": pair.upper,
               "lower_attained": pair.lower_attained})
    else:
        prec = _precision(args, 6)
        tail = "  (lower bound attained)" if pair.lower_attained else ""
        print(f"lower={pair.lower:.{prec}f} upper={pair.upper:.{prec}f}{tail}")
    return 0


def _cmd_check(args) -> int:
    p = load_polyhedron(args.file)
    if args.check_kind == "stats":
        profile = validate(p)
        stats = face_statistics(p)
        vector = {str(k): stats.p[k] for k in sorted(stats.p)}
        if args.json:
            _emit({"vertex_count": p.vertex_count, "edges": profile.e,
                   "faces": profile.f, "v_ideal": profile.v_inf,
                   "v_finite": profile.v_f, "face_vector": vector,
                   "w": stats.w, "wi": stats.wi})
        else:
            parts = " ".join(f"p{k}={v}" for k, v in vector.items())
            print(f"V={p.vertex_count} E={profile.e} F={profile.f} "
                  f"ideal={profile.v_inf} finite={profile.v_f} {parts} "
                  f"W={stats.w} WI={stats.wi}")
        return 0

    result = andreev_check(p, condition3_reading=args.condition3_reading)
    if args.json:
        _emit({"passed": result.passed, "condition": result.condition,
               "witness": result.witness, "reading": result.reading})
    elif result.passed:
        print("pass")
    else:
        print(f"fail: condition {result.condition} witness {result.witness}")
    return 0 if result.passed else 2


def _cmd_census_enumerate(args) -> int:
    pair = CandidatePair(args.videal, args.vfinite)
    record = enumerate_types(pair, condition3_reading=args.condition3_reading)
    if args.json:
        _emit(record.to_dict())
        return 0
    count = len(record.realizable_types)
    print(f"pair ({pair.v_inf},{pair.v_f}): {count} realizable type(s)")
    for cert in record.realizable_types:
        print(f"  {cert}")
    if record.volume is not None:
        prec = _precision(args, 6)
        print(f"  volume = {record.volume.value:.{prec}f}  ({record.volume.formula})")
    return 0


def _cmd_verify_theorem(args) -> int:
    report = verify_minimality(condition3_reading=args.condition3_reading)
    if args.json:
        _emit(report.to_dict())
        return 0 if report.verified else 2
    prec = _precision(args, 6)
    print(f"verified: {'yes' if report.verified else 'no'}")
    print(f"minimal volume = {report.minimal_volume:.{prec}f}")
    print(f"witness = {report.witness}")
    print(f"uniqueness = {report.uniqueness}")
    print(f"condition3 reading = {report.condition3_reading}")
    for failure in report.failures:
        print(f"failure: {failure}")
    return 0 if report.verified else 2


def _cmd_arith(args) -> int:
    matrix = load_coxeter(args.file)
    gram = gram_from_coxeter(matrix)
    result = is_arithmetic_noncocompact(gram, args.max_len)
    if args.json:
        payload = result.to_dict()
        payload["note"] = _ARITH_CAVEAT
        _emit(payload)
    else:
        if result.arithmetic:
            print(f"arithmetic ({result.cycles_checked} cyclic products checked)")
        else:
            print(f"not arithmetic: cycle {list(result.witness_cycle)} "
                  f"has product {result.witness_product}")
        print(_ARITH_CAVEAT)
    return 0 if result.arithmetic else 2


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--precision", type=_precision_type, default=None, metavar="D",
                     help="decimal places for plain output (max 12)")


def _add_reading(sub) -> None:
    sub.add_argument("--condition3-reading", default=READING_DISJOINT,
                     choices=(READING_DISJOINT, READING_DISTINCT),
                     help="quantifier reading for realizability condition 3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raca",
        description="Right-angled polyhedra: volumes, census, arithmeticity.")
    commands = parser.add_subparsers(dest="command", required=True)

    lob = commands.add_parser("lob", help="Lobachevsky function value")
    lob.add_argument("theta", help="angle (decimal or pi/<k>)")
    _add_common(lob)
    lob.set_defaults(func=_cmd_lob)

    volume = commands.add_parser("volume", help="closed-form volumes")
    vkinds = volume.add_subparsers(dest="volume_kind", required=True)
    ortho = vkinds.add_parser("orthoscheme", help="volume of R(alpha, beta, gamma)")
    for name in ("alpha", "beta", "gamma"):
        ortho.add_argument(name)
    _add_common(ortho)
    ortho.set_defaults(func=_cmd_volume)
    for family in ("lobell", "antiprism"):
        fam = vkinds.add_parser(family, help=f"{family} family volume")
        fam.add_argument("n", type=int)
        _add_common(fam)
        fam.set_defaults(func=_cmd_volume)
    named = vkinds.add_parser("named", help="volume of a named polyhedron")
    named.add_argument("name")
    _add_common(named)
    named.set_defaults(func=_cmd_volume)

    bounds = commands.add_parser("bounds", help="volume bounds from vertex counts")
    bkinds = bounds.add_subparsers(dest="bounds_kind", required=True)
    compact = bkinds.add_parser("compact", help="compact, V vertices")
    compact.add_argument("vertices", type=int)
    _add_common(compact)
    compact.set_defaults(func=_cmd_bounds)
    ideal = bkinds.add_parser("ideal", help="ideal, V vertices")
    ideal.add_argument("vertices", type=int)
    _add_common(ideal)
    ideal.set_defaults(func=_cmd_bounds)
    mixed = bkinds.add_parser("mixed", help="mixed vertex counts")
    mixed.add_argument("videal", type=int)
    mixed.add_argument("vfinite", type=int)
    _add_common(mixed)
    mixed.set_defaults(func=_cmd_bounds)

    check = commands.add_parser("check", help="combinatorial checks on a polyhedron file")
    ckinds = check.add_subparsers(dest="check_kind", required=True)
    andreev = ckinds.add_parser("andreev", help="realizability conditions")
    andreev.add_argument("file")
    _add_reading(andreev)
    _add_common(andreev)
    andreev.set_defaults(func=_cmd_check)
    stats = ckinds.add_parser("stats", help="combinatorial statistics")
    stats.add_argument("file")
    _add_common(stats)
    stats.set_defaults(func=_cmd_check)

    census = commands.add_parser("census", help="combinatorial census")
    censuskinds = census.add_subparsers(dest="census_kind", required=True)
    enum = censuskinds.add_parser("enumerate", help="enumerate realizable types")
    enum.add_argument("--videal", type=int, required=True)
    enum.add_argument("--vfinite", type=int, required=True)
    _add_reading(enum)
    _add_common(enum)
    enum.set_defaults(func=_cmd_census_enumerate)
    verify = censuskinds.add_parser("verify-theorem", help="verify minimal volume")
    _add_reading(verify)
    _add_common(verify)
    verify.set_defaults(func=_cmd_verify_theorem)

    arith = commands.add_parser("arith", help="arithmeticity of a Coxeter diagram")
    akinds = arith.add_subparsers(dest="arith_kind", required=True)
    acheck = akinds.add_parser("check", help="Vinberg cyclic-product criterion")
    acheck.add_argument("file")
    acheck.add_argument("--max-len", type=int, default=None)
    _add_common(acheck)
    acheck.set_defaults(func=_cmd_arith)

    alias = commands.add_parser("verify-theorem", help="alias of census verify-theorem")
    _add_reading(alias)
    _add_common(alias)
    alias.set_defaults(func=_cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # a leading space keeps argparse from reading "-pi/4" or "-1e3" as an
    # option; parse_angle and int() strip it again
    argv = [" " + arg if _NEGATED.match(arg) else arg for arg in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; that slot is taken
        # by mathematical failures, so usage problems are reported as 3
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PolyhedronError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
