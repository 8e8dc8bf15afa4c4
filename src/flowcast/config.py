"""Run configuration: YAML loading, validation, canonical hashing.

The config file is plain YAML (comment-capable); every section has
defaults so a minimal file is enough.  The canonical hash of the loaded
config is echoed into every artifact for provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import yaml

from .errors import ParseError
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
        _check_above(self, {"n_groups": 0, "flows_per_group": 1, "duration_s": 0,
                            "peak_kbit": 0})


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


_SECTION_KEYS = {
    "experiment": {"observe_steps", "predict_horizon_s", "chunk_lengths_s",
                   "sample_interval_s", "chunk_interval_s", "peak_window_s",
                   "peak_factor", "subspace_size", "kept_dim", "window_horizons",
                   "bandwidth_seed", "ar_order"},
    "clustering": {"max_groups", "distance_threshold", "signature_frames",
                   "signature_chunk_length_s"},
    "synth": {"n_groups", "flows_per_group", "duration_s", "peak_kbit"},
    "hyper": {"source", "fixed", "grid", "validation", "holdout_fraction"},
}


def _check_keys(section: str, data: dict) -> None:
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        raise ParseError(f"unknown keys in '{section}': {sorted(unknown)}")


def _tupled(data: dict, *keys) -> dict:
    out = dict(data)
    for key in keys:
        if key in out:
            out[key] = tuple(out[key])
    return out


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load and validate a YAML config; missing file/sections keep defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ParseError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config root must be a mapping")
    if overrides:
        raw = {**raw, **overrides}
    known_root = set(_SECTION_KEYS) | {"seed"}
    unknown = set(raw) - known_root
    if unknown:
        raise ParseError(f"unknown config sections: {sorted(unknown)}")
    try:
        exp = _tupled(raw.get("experiment", {}), "chunk_lengths_s", "window_horizons")
        _check_keys("experiment", exp)
        experiment = ExperimentConfig(**exp)

        clu = raw.get("clustering", {})
        _check_keys("clustering", clu)
        clustering = ClusteringConfig(**clu)

        syn = raw.get("synth", {})
        _check_keys("synth", syn)
        synth_cfg = SynthConfig(**syn)

        hyp = dict(raw.get("hyper", {}))
        _check_keys("hyper", hyp)
        if "fixed" in hyp:
            hyp["fixed"] = FkkfHyperparams(**hyp["fixed"])
        if "grid" in hyp:
            hyp["grid"] = SearchSpace(**_tupled(hyp["grid"], "lambda_t", "lambda_o",
                                                "state_bw_scale", "obs_bw_scale",
                                                "kappa"))
        hyper = HyperConfig(**hyp)
        return RunConfig(experiment=experiment, clustering=clustering,
                         synth=synth_cfg, hyper=hyper, seed=int(raw.get("seed", 0)))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid config value: {exc}") from exc
