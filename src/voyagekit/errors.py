"""Exception hierarchy shared across the toolkit, the JSON file reader that raises into it, and the JSON writer."""

import json
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
