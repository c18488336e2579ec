"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError and malformed input exit 3,
mathematical failures exit 2, ResourceLimitError exits 4.
"""

import json
import math


class RacaError(Exception):
    pass


class DomainError(RacaError):
    """Input outside the mathematical domain of an operation."""


class ResourceLimitError(RacaError):
    """Computation would exceed the supported problem size."""


class PolyhedronError(RacaError):
    """Structural validation failure; carries a stable error code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# validation codes, in the order the checks run
BAD_INDEX = "bad_index"
BAD_FACE = "bad_face"
EDGE_FACE_COUNT = "edge_face_count"
MULTI_ADJACENT_FACES = "multi_adjacent_faces"
DISCONNECTED = "disconnected"
NOT_3_CONNECTED = "not_3_connected"
BAD_DEGREE = "bad_degree"
EULER = "euler"


def _reject_constant(name):
    raise DomainError(f"JSON input: {name} is not a number")


def _finite_float(text):
    value = float(text)
    if math.isinf(value):
        raise DomainError(f"JSON input: {text} is out of float range")
    return value


def _as_int(x, what):
    """x, which must be an int and not a bool: a float or a string is an
    input error, whatever value int() would give it."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return x


def _read_json(source, what):
    """The object `what` (say "polyhedron input") from a dict, a JSON object
    string, or a JSON file path.

    NaN, Infinity, numbers that overflow a float, integers too long to
    convert, nesting too deep to parse and JSON that is not an object are
    input errors.
    """
    if isinstance(source, dict):
        return source
    text = str(source)
    hooks = {"parse_constant": _reject_constant, "parse_float": _finite_float}
    try:
        if text.lstrip().startswith("{"):
            data = json.loads(text, **hooks)
        else:
            with open(text) as fh:
                data = json.load(fh, **hooks)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        raise DomainError(f"JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data
