"""Run configuration: YAML loading, validation, canonical hashing.

The config file is plain YAML (comment-capable); every section has
defaults so a minimal file is enough.  The canonical hash of the loaded
config is echoed into every artifact for provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import yaml

from .errors import EmptySpace, ParseError
from .evaluation import ExperimentConfig
from .fkkf import FkkfHyperparams
from .hyperopt import VALIDATION_SCHEMES, SearchSpace
from .spectral import ChunkConfig


def _check_above(config, bounds: dict) -> None:
    """Refuse a field that is not above its bound (NaN included)."""
    for name, bound in bounds.items():
        if not getattr(config, name) > bound:
            raise ValueError(f"{name} must be > {bound}, got {getattr(config, name)}")


@dataclass(frozen=True)
class ClusteringConfig:
    max_groups: int = 20
    distance_threshold: float = 50.0
    signature_frames: int = 20
    signature_chunk_length_s: float = 1.0

    def __post_init__(self):
        _check_above(self, {"max_groups": 0, "distance_threshold": 0, "signature_frames": 0})


@dataclass(frozen=True)
class SynthConfig:
    n_groups: int = 10
    flows_per_group: int = 8
    duration_s: float = 8.0
    peak_kbit: float = 100.0

    def __post_init__(self):
        _check_above(self, {"n_groups": 0, "flows_per_group": 1})
        for name in ("duration_s", "peak_kbit"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class HyperConfig:
    source: str = "fixed"  # fixed | grid
    fixed: FkkfHyperparams = field(default_factory=FkkfHyperparams)
    grid: SearchSpace = field(default_factory=SearchSpace)
    validation: str = "leave_one_out"
    holdout_fraction: float = 0.25

    def __post_init__(self):
        if self.source not in ("fixed", "grid"):
            raise ValueError(f"hyperparams.source must be fixed|grid, got {self.source}")
        if self.validation not in VALIDATION_SCHEMES:
            raise ValueError(f"validation must be {'|'.join(VALIDATION_SCHEMES)}, "
                             f"got {self.validation}")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError(f"holdout_fraction must lie in (0, 1), "
                             f"got {self.holdout_fraction}")


@dataclass(frozen=True)
class RunConfig:
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    hyper: HyperConfig = field(default_factory=HyperConfig)
    seed: int = 0

    def __post_init__(self):
        self.signature_chunk_config()  # refuses a length off the sample grid

    def signature_chunk_config(self) -> ChunkConfig:
        """Chunking of the clustering signatures, on the experiment's grid."""
        return ChunkConfig(sample_interval_s=self.experiment.sample_interval_s,
                           chunk_interval_s=self.experiment.chunk_interval_s,
                           chunk_length_s=self.clustering.signature_chunk_length_s)

    def canonical(self) -> dict:
        data = asdict(self)
        data["hyper"]["fixed"] = list(self.hyper.fixed.as_tuple())
        return data

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _mapping(data, where: str) -> dict:
    """data as a dict; None (an empty section or file) keeps the defaults."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be a mapping")
    return data


def _build(cls, data: dict, name: str | None):
    """cls from one YAML mapping; name is None for the config root.

    The allowed keys are the fields of cls.  A field whose default is
    itself a dataclass is a nested section, built the same way.  YAML
    lists become tuples.  A field annotated int takes an int only (not a
    bool, not a float with or without a fraction).
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        what = f"keys in '{name}'" if name else "config sections"
        raise ParseError(f"unknown {what}: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        nested = fields[key].default_factory
        if dataclasses.is_dataclass(nested):
            value = _build(nested, _mapping(value, f"section '{key}'"), key)
        elif isinstance(value, list):
            value = tuple(value)
        elif fields[key].type == "int" and (
                isinstance(value, bool) or not isinstance(value, int)):
            raise TypeError(f"{key} must be an integer, got {value!r}")
        values[key] = value
    return cls(**values)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load and validate a YAML config; missing file/sections keep defaults."""
    raw = None
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ParseError(f"invalid YAML in {path}: {exc}") from exc
    raw = {**_mapping(raw, "config root"), **(overrides or {})}
    try:
        return _build(RunConfig, raw, None)
    except (TypeError, ValueError, EmptySpace) as exc:
        raise ParseError(f"invalid config value: {exc}") from exc
