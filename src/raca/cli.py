"""Command-line frontend.

Exit codes: 0 success or pass, 2 mathematical failure (a check or
verification that ran and came out false), 3 input error, 4 resource
limit.  All output is deterministic; --json switches any subcommand to a
stable JSON schema with sorted keys.

Each leaf command is declared once, by one `_leaf` call that names its
arguments, handler and computation; no handler branches on the subcommand.
No handler prints: each returns (exit code, JSON payload, plain text), and
`main` prints the payload under --json and the text otherwise.
`main` builds only the subtree of the command it is given, not the full parser.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built;
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
    _face_statistics,
    _sphere_map,
    andreev_check,
    load_polyhedron,
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


def _precision_type(text) -> int:
    """argparse type of --precision: checked on every command, --json included."""
    try:
        prec = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if prec < 0 or prec > 12:
        raise argparse.ArgumentTypeError("must be between 0 and 12")
    return prec


def _cmd_lob(args):
    theta = parse_angle(args.theta)
    result = lobachevsky(theta)
    payload = {"theta": theta, "value": result.value, "error_bound": result.abs_error_bound}
    return 0, payload, f"{result.value:.{args.precision}f}"


def _cmd_volume(args):
    report = args.compute(args)
    payload = {"value": report.value, "formula": report.formula,
               "error_bound": report.abs_error_bound}
    return 0, payload, f"{report.value:.{args.precision}f}  ({report.formula})"


def _cmd_bounds(args):
    pair = args.compute(args)
    payload = {"lower": pair.lower, "upper": pair.upper, "lower_attained": pair.lower_attained}
    prec = args.precision
    tail = "  (lower bound attained)" if pair.lower_attained else ""
    return 0, payload, f"lower={pair.lower:.{prec}f} upper={pair.upper:.{prec}f}{tail}"


def _cmd_stats(args):
    p = load_polyhedron(args.file)
    m = _sphere_map(p)
    profile, stats = m.profile, _face_statistics(m)
    vector = {str(k): stats.p[k] for k in sorted(stats.p)}
    payload = {"vertex_count": p.vertex_count, "edges": profile.e,
               "faces": profile.f, "v_ideal": profile.v_inf,
               "v_finite": profile.v_f, "face_vector": vector,
               "w": stats.w, "wi": stats.wi}
    parts = " ".join(f"p{k}={v}" for k, v in vector.items())
    text = (f"V={p.vertex_count} E={profile.e} F={profile.f} "
            f"ideal={profile.v_inf} finite={profile.v_f} {parts} "
            f"W={stats.w} WI={stats.wi}")
    return 0, payload, text


def _cmd_andreev(args):
    result = andreev_check(load_polyhedron(args.file),
                           condition3_reading=args.condition3_reading)
    payload = {"passed": result.passed, "condition": result.condition,
               "witness": result.witness, "reading": result.reading}
    if result.passed:
        return 0, payload, "pass"
    return 2, payload, f"fail: condition {result.condition} witness {result.witness}"


def _cmd_census_enumerate(args):
    pair = CandidatePair(args.videal, args.vfinite)
    record = enumerate_types(pair, condition3_reading=args.condition3_reading)
    count = len(record.realizable_types)
    lines = [f"pair ({pair.v_inf},{pair.v_f}): {count} realizable type(s)"]
    lines += [f"  {cert}" for cert in record.realizable_types]
    if record.volume is not None:
        volume = record.volume
        lines.append(f"  volume = {volume.value:.{args.precision}f}  ({volume.formula})")
    return 0, record.to_dict(), "\n".join(lines)


def _cmd_verify_theorem(args):
    report = verify_minimality(condition3_reading=args.condition3_reading)
    lines = [f"verified: {'yes' if report.verified else 'no'}",
             f"minimal volume = {report.minimal_volume:.{args.precision}f}",
             f"witness = {report.witness}",
             f"uniqueness = {report.uniqueness}",
             f"condition3 reading = {report.condition3_reading}"]
    lines += [f"failure: {failure}" for failure in report.failures]
    return 0 if report.verified else 2, report.to_dict(), "\n".join(lines)


def _cmd_arith(args):
    matrix = load_coxeter(args.file)
    gram = gram_from_coxeter(matrix)
    result = is_arithmetic_noncocompact(gram, args.max_len)
    if result.arithmetic:
        code, verdict = 0, f"arithmetic ({result.cycles_checked} cyclic products checked)"
    else:
        code, verdict = 2, (f"not arithmetic: cycle {list(result.witness_cycle)} "
                            f"has product {result.witness_product}")
    return code, {**result.to_dict(), "note": _ARITH_CAVEAT}, f"{verdict}\n{_ARITH_CAVEAT}"


_INT = {"type": int}


def _leaf(kinds, name, help, handler, arguments=(), *, compute=None,
          reading=False, precision=6) -> None:
    """Declare one leaf command: its arguments in order, then the shared
    --condition3-reading (if `reading`), --json and --precision options."""
    sub = kinds.add_parser(name, help=help)
    for flag, options in arguments:
        sub.add_argument(flag, **options)
    if reading:
        sub.add_argument("--condition3-reading", default=READING_DISJOINT,
                         choices=(READING_DISJOINT, READING_DISTINCT),
                         help="quantifier reading for realizability condition 3")
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--precision", type=_precision_type, default=precision, metavar="D",
                     help="decimal places for plain output (max 12)")
    sub.set_defaults(func=handler, compute=compute)


def _kinds(commands, name, help, dest):
    return commands.add_parser(name, help=help).add_subparsers(dest=dest, required=True)


def _lob(commands):
    _leaf(commands, "lob", "Lobachevsky function value", _cmd_lob,
          [("theta", {"help": "angle (decimal or pi/<k>)"})], precision=12)


def _volume(commands):
    volume = _kinds(commands, "volume", "closed-form volumes", "volume_kind")
    _leaf(volume, "orthoscheme", "volume of R(alpha, beta, gamma)", _cmd_volume,
          [("alpha", {}), ("beta", {}), ("gamma", {})],
          compute=lambda a: orthoscheme_volume(
              parse_angle(a.alpha), parse_angle(a.beta), parse_angle(a.gamma)))
    _leaf(volume, "lobell", "lobell family volume", _cmd_volume, [("n", _INT)],
          compute=lambda a: lobell_volume(a.n))
    _leaf(volume, "antiprism", "antiprism family volume", _cmd_volume, [("n", _INT)],
          compute=lambda a: antiprism_volume(a.n))
    _leaf(volume, "named", "volume of a named polyhedron", _cmd_volume, [("name", {})],
          compute=lambda a: named_volume(a.name))


def _bounds(commands):
    bounds = _kinds(commands, "bounds", "volume bounds from vertex counts", "bounds_kind")
    _leaf(bounds, "compact", "compact, V vertices", _cmd_bounds, [("vertices", _INT)],
          compute=lambda a: atkinson_bounds_compact(a.vertices))
    _leaf(bounds, "ideal", "ideal, V vertices", _cmd_bounds, [("vertices", _INT)],
          compute=lambda a: atkinson_bounds_ideal(a.vertices))
    _leaf(bounds, "mixed", "mixed vertex counts", _cmd_bounds,
          [("videal", _INT), ("vfinite", _INT)],
          compute=lambda a: mixed_bounds(a.videal, a.vfinite))


def _check(commands):
    check = _kinds(commands, "check", "combinatorial checks on a polyhedron file", "check_kind")
    _leaf(check, "andreev", "realizability conditions", _cmd_andreev, [("file", {})], reading=True)
    _leaf(check, "stats", "combinatorial statistics", _cmd_stats, [("file", {})])


def _verify_theorem(kinds, help="alias of census verify-theorem"):
    _leaf(kinds, "verify-theorem", help, _cmd_verify_theorem, reading=True)


def _census(commands):
    census = _kinds(commands, "census", "combinatorial census", "census_kind")
    _leaf(census, "enumerate", "enumerate realizable types", _cmd_census_enumerate,
          [("--videal", {"type": int, "required": True}),
           ("--vfinite", {"type": int, "required": True})], reading=True)
    _verify_theorem(census, "verify minimal volume")


def _arith(commands):
    arith = _kinds(commands, "arith", "arithmeticity of a Coxeter diagram", "arith_kind")
    _leaf(arith, "check", "Vinberg cyclic-product criterion", _cmd_arith,
          [("file", {}), ("--max-len", _INT)])


# each top-level command's declaration, in the order of the usage line
_COMMANDS = {"lob": _lob, "volume": _volume, "bounds": _bounds, "check": _check,
             "census": _census, "arith": _arith, "verify-theorem": _verify_theorem}


def _parser(names, metavar=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raca",
        description="Right-angled polyhedra: volumes, census, arithmeticity.")
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _COMMANDS[name](commands)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a leading space keeps argparse from reading "-pi/4" or "-1e3" as an
    # option; parse_angle and int() strip it again
    argv = [" " + arg if _NEGATED.match(arg) else arg for arg in argv]
    if argv and argv[0] in _COMMANDS:
        # the metavar keeps every command in the usage line of a root error
        parser = _parser(argv[:1], metavar="{" + ",".join(_COMMANDS) + "}")
    else:  # no command, or an unknown one: the full parser reports it
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; that slot is taken
        # by mathematical failures, so usage problems are reported as 3
        return 0 if exc.code in (0, None) else 3
    try:
        code, payload, text = args.func(args)
        print(json.dumps(payload, sort_keys=True) if args.json else text)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PolyhedronError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
