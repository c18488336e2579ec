"""Command-line frontend.

Exit codes: 0 success or pass, 2 mathematical failure (a check or
verification that ran and came out false), 3 input error, 4 resource
limit.  All output is deterministic; --json switches any subcommand to a
stable JSON schema with sorted keys.

Each leaf command is declared once, as one row of `_LEAVES`: its path, help,
handler, computation, default --precision and arguments.  No handler
branches on the subcommand, and none prints: each returns (exit code, JSON
payload, plain text), and `main` prints the payload under --json and the
text otherwise.

Two readers turn a command line into a handler's arguments, both from those
rows.  `_direct` reads a well-formed command (a leaf's exact path, then its
positionals and exact option strings, each option at most once and with a
value that does not start with "-") into a namespace holding what argparse
would return, without argparse.  Anything else goes to argparse: help,
usage errors, abbreviated options, `=` forms, `--`, repeats and values that
do not convert.  For those `main` builds the argparse parser of every
command, and argparse writes every help text, usage line and error message.
argparse, and gettext and locale through it, is imported only there, so a
well-formed command never loads it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from types import SimpleNamespace

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
            raise DomainError(f"angle {s} is not a number") from None
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
        if 0 <= prec <= 12:
            return prec
        message = "must be between 0 and 12"
    except ValueError:
        message = f"invalid int value: {text!r}"
    from argparse import ArgumentTypeError  # a rejected value goes to argparse anyway
    raise ArgumentTypeError(message)


def _rejections():
    """The exceptions by which a type callable rejects a value, as argparse
    catches them.  An except clause evaluates this only once something is
    raised, so a value that converts does not import argparse."""
    from argparse import ArgumentTypeError
    return ArgumentTypeError, TypeError, ValueError


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
_READING = ("--condition3-reading", {
    "default": READING_DISJOINT, "choices": (READING_DISJOINT, READING_DISTINCT),
    "help": "quantifier reading for realizability condition 3"})

# every leaf command, once: path -> (help, handler, computation, default
# --precision, arguments...).  An argument is the name and keywords of one
# add_argument call, or the bare name of a positional read as text; --json
# and --precision follow the listed ones.
_LEAVES = {
    "lob": ("Lobachevsky function value", _cmd_lob, None, 12,
            ("theta", {"help": "angle (decimal or pi/<k>)"})),
    "volume orthoscheme": ("volume of R(alpha, beta, gamma)", _cmd_volume,
                           lambda a: orthoscheme_volume(
                               parse_angle(a.alpha), parse_angle(a.beta), parse_angle(a.gamma)),
                           6, "alpha", "beta", "gamma"),
    "volume lobell": ("lobell family volume", _cmd_volume,
                      lambda a: lobell_volume(a.n), 6, ("n", _INT)),
    "volume antiprism": ("antiprism family volume", _cmd_volume,
                         lambda a: antiprism_volume(a.n), 6, ("n", _INT)),
    "volume named": ("volume of a named polyhedron", _cmd_volume,
                     lambda a: named_volume(a.name), 6, "name"),
    "bounds compact": ("compact, V vertices", _cmd_bounds,
                       lambda a: atkinson_bounds_compact(a.vertices), 6, ("vertices", _INT)),
    "bounds ideal": ("ideal, V vertices", _cmd_bounds,
                     lambda a: atkinson_bounds_ideal(a.vertices), 6, ("vertices", _INT)),
    "bounds mixed": ("mixed vertex counts", _cmd_bounds,
                     lambda a: mixed_bounds(a.videal, a.vfinite), 6,
                     ("videal", _INT), ("vfinite", _INT)),
    "check andreev": ("realizability conditions", _cmd_andreev, None, 6,
                      "file", _READING),
    "check stats": ("combinatorial statistics", _cmd_stats, None, 6, "file"),
    "census enumerate": ("enumerate realizable types", _cmd_census_enumerate, None, 6,
                         ("--videal", {"type": int, "required": True}),
                         ("--vfinite", {"type": int, "required": True}), _READING),
    "census verify-theorem": ("verify minimal volume", _cmd_verify_theorem, None, 6, _READING),
    "arith check": ("Vinberg cyclic-product criterion", _cmd_arith, None, 6,
                    "file", ("--max-len", _INT)),
    "verify-theorem": ("alias of census verify-theorem", _cmd_verify_theorem, None, 6,
                       _READING),
}
# the top-level commands, in the order of the usage line -> the help of a
# group command, whose leaves are the paths that start with its name, or
# None for a leaf
_COMMANDS = {"lob": None, "volume": "closed-form volumes",
             "bounds": "volume bounds from vertex counts",
             "check": "combinatorial checks on a polyhedron file",
             "census": "combinatorial census", "arith": "arithmeticity of a Coxeter diagram",
             "verify-theorem": None}


def _arguments(precision, *arguments):
    """The name and keywords of each argument of a leaf, in order, --json
    and --precision last."""
    return [*((arg, {}) if isinstance(arg, str) else arg for arg in arguments),
            ("--json", {"action": "store_true", "help": "emit JSON"}),
            ("--precision", {"type": _precision_type, "default": precision, "metavar": "D",
                             "help": "decimal places for plain output (max 12)"})]


def _leaf(kinds, name, help, handler, compute, precision, *arguments) -> None:
    """Build the argparse parser of one leaf from its declaration."""
    sub = kinds.add_parser(name, help=help)
    for flag, options in _arguments(precision, *arguments):
        sub.add_argument(flag, **options)
    sub.set_defaults(func=handler, compute=compute)


def build_parser():
    """The argparse parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="raca",
        description="Right-angled polyhedra: volumes, census, arithmeticity.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help in _COMMANDS.items():
        if help is None:
            _leaf(commands, name, *_LEAVES[name])
            continue
        kinds = commands.add_parser(name, help=help).add_subparsers(
            dest=f"{name}_kind", required=True)
        for path, leaf in _LEAVES.items():
            group, _, kind = path.partition(" ")
            if group == name:
                _leaf(kinds, kind, *leaf)
    return parser


def _direct(argv):
    """A namespace with the attributes of the Namespace argparse returns for
    argv, read straight from the leaf's declaration; None unless argv is a
    leaf's exact path, then its positionals and exact option strings, each
    at most once and with a value that does not start with "-", and every
    value converts."""
    path = argv[:2] if argv[:1] and _COMMANDS.get(argv[0]) else argv[:1]
    leaf = _LEAVES.get(" ".join(path))
    if leaf is None or " " in "".join(path):
        return None
    _, handler, compute, precision, *arguments = leaf
    values = {"command": path[0], "func": handler, "compute": compute}
    if len(path) == 2:
        values[f"{path[0]}_kind"] = path[1]
    options, positionals, given = {}, [], []
    for flag, spec in _arguments(precision, *arguments):
        dest = flag.lstrip("-").replace("-", "_")
        if flag.startswith("-"):
            options[flag] = dest, spec
            values[dest] = spec.get("default", False if "action" in spec else None)
        else:
            positionals.append((dest, spec))
    words = iter(argv[len(path):])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            given.append((*positionals.pop(0), word))
        elif word not in options:  # an unknown option, a repeated one, "-" or "--"
            return None
        else:
            dest, spec = options.pop(word)
            if "action" in spec:  # --json
                values[dest] = True
                continue
            word = next(words, "-")
            if word.startswith("-"):
                return None
            given.append((dest, spec, word))
    for _, spec in options.values():
        if spec.get("required"):
            return None
    if positionals:
        return None
    try:  # as argparse converts a value: by its type, then the choices test
        for dest, spec, word in given:
            value = spec.get("type", str)(word)
            if value not in spec.get("choices", (value,)):
                return None
            values[dest] = value
    except _rejections():
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a leading space keeps argparse from reading "-pi/4" or "-1e3" as an
    # option; parse_angle and int() strip it again
    argv = [" " + arg if _NEGATED.match(arg) else arg for arg in argv]
    args = _direct(argv)
    if args is None:  # help, a usage error or a form only argparse reads
        try:
            args = build_parser().parse_args(argv)
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
