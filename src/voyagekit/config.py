"""Run configuration: JSON file, then CLI flags."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .efficiency import FEATURE_CASES
from .errors import ConfigurationError, read_json
from .geo import PORT_DWELL_MAX_SOG, PORT_DWELL_S
from .hmm import DEFAULT_FEATURES

PATHID_METHODS = ("kmeans", "gmm", "hierarchical", "segment-gmm")


@dataclass
class RunConfig:
    # Input locations; unset values fall back to <out_dir>/fleet/ conventions.
    onboard_dir: str | None = None
    weather_dir: str | None = None
    segment_spec: str | None = None
    labels: str | None = None
    port_regions: str | None = None
    # Ingestion parameters.
    gap_threshold_s: float = 1800.0
    resample_period_s: float = 60.0
    port_dwell_s: float = PORT_DWELL_S
    port_max_sog: float = PORT_DWELL_MAX_SOG
    # Estimation / optimization parameters.
    feature_case: str = "IV"
    knn_k: int = 5
    train_fraction: float = 0.7
    hmm_features: tuple[str, ...] = DEFAULT_FEATURES
    # Path identification parameters.
    pathid_method: str = "hierarchical"
    pathid_metric: str = "euclidean"
    dendrogram_cutoff: float = 0.07
    kmeans_k: int = 3
    # Shared.
    seed: int = 0
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        for attr in ("onboard_dir", "weather_dir", "segment_spec", "labels", "port_regions"):
            value = getattr(self, attr)
            if value and not Path(value).exists():
                raise ConfigurationError(f"{attr} does not exist: {value}")
        for f in dataclasses.fields(self):  # a comparison, as a huge JSON int overflows isfinite
            if f.type == "float" and not -math.inf < (value := getattr(self, f.name)) < math.inf:
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.gap_threshold_s <= 0:
            raise ConfigurationError(f"gap_threshold_s must be > 0, got {self.gap_threshold_s}")
        if self.resample_period_s <= 0:
            raise ConfigurationError(f"resample_period_s must be > 0, got {self.resample_period_s}")
        if self.port_dwell_s < 0:
            raise ConfigurationError(f"port_dwell_s must be >= 0, got {self.port_dwell_s}")
        if self.port_max_sog <= 0:
            raise ConfigurationError(f"port_max_sog must be > 0, got {self.port_max_sog}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.feature_case not in FEATURE_CASES:
            raise ConfigurationError(
                f"feature_case {self.feature_case!r} not one of {sorted(FEATURE_CASES)}"
            )
        if self.pathid_method not in PATHID_METHODS:
            raise ConfigurationError(
                f"pathid_method {self.pathid_method!r} not one of {list(PATHID_METHODS)}"
            )
        if self.pathid_metric not in ("euclidean", "haversine"):
            raise ConfigurationError(f"pathid_metric {self.pathid_metric!r} unknown")
        if not self.hmm_features:
            raise ConfigurationError("hmm_features must name at least one weather channel")
        if self.knn_k < 1 or self.kmeans_k < 2:
            raise ConfigurationError("knn_k must be >= 1 and kmeans_k >= 2")
        if self.dendrogram_cutoff < 0:
            raise ConfigurationError("dendrogram_cutoff must be >= 0")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

#: Per field annotation: the JSON values a config file may give (a bool
#: never counts) and their description.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "tuple[str, ...]": ((list,), "a list of strings"),
}


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Layered configuration: JSON file, then overrides (the CLI flags)."""
    values: dict = {}
    if path is not None:
        raw = read_json(path, "config file")
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: expected a JSON object")
        unknown = set(raw) - set(_FIELDS)
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys {sorted(unknown)}")
        for name, value in raw.items():
            types, expected = _FIELD_TYPES[_FIELDS[name].type]
            items = value if isinstance(value, list) else ()
            if not isinstance(value, types) or isinstance(value, bool) or any(
                not isinstance(item, str) for item in items
            ):
                raise ConfigurationError(f"{path}: {name} must be {expected}, got {json.dumps(value)}")
        values.update(raw)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    if "hmm_features" in values and not isinstance(values["hmm_features"], tuple):
        values["hmm_features"] = tuple(values["hmm_features"])
    return RunConfig(**values).validate()
