"""Exception hierarchy shared across the toolkit, the field checker and JSON reader that raise into it, and the JSON writer."""

import dataclasses
import json
import math
import numbers
from pathlib import Path


class VoyagekitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(VoyagekitError):
    """Input data violates a documented precondition."""


class SchemaError(InvalidInputError):
    """A tabular input is missing required columns or is empty."""


class ConfigurationError(VoyagekitError):
    """A configuration value or file is unusable."""


class InsufficientDataError(VoyagekitError):
    """Not enough data to train or evaluate."""


class DegenerateFleetError(InvalidInputError):
    """Fleet-wide normalization constants are all zero."""


class DegenerateDataError(VoyagekitError):
    """Data has no variance to fit a model on."""


class UndefinedGainError(VoyagekitError):
    """Efficiency gain is undefined for a non-positive baseline score."""


class OutOfDomainError(VoyagekitError):
    """Query point lies outside the gridded domain."""


class MissingDataError(VoyagekitError):
    """A required grid cell or channel is missing."""


class UnclassifiableError(VoyagekitError):
    """No point of a path belongs to a discriminative route segment."""


def read_json(path: str | Path, what: str):
    """A UTF-8 JSON file, parsed; ConfigurationError naming it if it cannot be opened, decoded or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:  # RecursionError: arrays nested too deep
        raise ConfigurationError(f"{path}: cannot read {what} ({exc})") from exc


def write_json(path: str | Path, obj) -> None:
    """``obj`` as a JSON file: indent 2, sorted keys, NaN and infinity refused, a trailing newline.
    The text is built before the file is opened, so a value JSON cannot hold leaves the file as it was."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A number, not a bool, that converts to a finite float (an int too large for one does not)."""
    try:
        return _real(value) and math.isfinite(value)
    except OverflowError:
        return False


_HOLDS = {">": lambda value, limit: value > limit, ">=": lambda value, limit: value >= limit,
          "in": lambda value, interval: interval[0] < value < interval[1]}


def check_fields(obj, bounds: dict[str, tuple[str, object]], where: str = "") -> None:
    """Check a dataclass's fields: an int holds an int, not a bool; a float holds a finite number (see
    `is_finite_number`); a tuple[float, float] holds two; a ``bounds`` entry (op, limit), op ">", ">=" or "in"
    (an open interval), holds. The first failure raises ConfigurationError("<where><field> must be ..., got <value!r>")."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        items = {"float": (value,), "tuple[float, float]": value}.get(f.type, ())
        if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
            rule = "an integer"
        elif f.type == "tuple[float, float]" and not (isinstance(value, tuple) and len(value) == 2):
            rule = "two numbers"
        elif not all(map(_real, items)):
            rule = "a number"
        elif not all(map(is_finite_number, items)):
            rule = "finite"
        elif f.name in bounds and not _HOLDS[bounds[f.name][0]](value, bounds[f.name][1]):
            rule = "{} {}".format(*bounds[f.name])
        else:
            continue
        raise ConfigurationError(f"{where}{f.name} must be {rule}, got {value!r}")
