"""Run configuration: one JSON document drives every stage of the pipeline.

The file has optional sections ``codebook``, ``model``, ``training``,
``tracker`` (with a nested ``inpaint``), and ``scene``, plus a global
``seed``. The ``training``, ``tracker`` and ``scene`` sections are the
library's own :class:`TrainSchedule`, :class:`TrackerConfig` (with
:class:`InpaintParams`) and :class:`SceneSpec`, so their defaults live in
one place. A section whose seed is absent or null takes the enclosing seed.
Unknown keys anywhere are rejected outright: a typo should fail loudly, not
silently fall back to a default. The ``GAPTRACK_CONFIG`` environment
variable supplies a config path when the command line does not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .motion_model import ModelConfig
from .scoring import InpaintParams
from .synth import SceneSpec
from .tracker import TrackerConfig
from .training import TrainSchedule

ENV_CONFIG = "GAPTRACK_CONFIG"


@dataclass(frozen=True)
class CodebookSection:
    # The smallest size that kept MOTA and IDF1 in the K sweep
    # (tools/codebook_sweep.py): at 64 the crowded scene's IDF1 fell.
    size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.seed < 0:  # numpy seeds must be non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ModelSection:
    # num_clusters is not configurable: it comes from the fitted codebook.
    hidden_dim: int = ModelConfig.hidden_dim

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")


_SECTIONS = {
    "codebook": CodebookSection,
    "model": ModelSection,
    "training": TrainSchedule,
    "tracker": TrackerConfig,
    "scene": SceneSpec,
    "inpaint": InpaintParams,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    codebook: CodebookSection | None = None  # None: built with the global seed
    model: ModelSection | None = None
    training: TrainSchedule | None = None
    tracker: TrackerConfig | None = None
    scene: SceneSpec | None = None

    def __post_init__(self):
        if self.seed < 0:  # numpy seeds must be non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for f in fields(self):
            if f.name in _SECTIONS and getattr(self, f.name) is None:
                section = _build(_SECTIONS[f.name], {}, f"{f.name}.", self.seed)
                object.__setattr__(self, f.name, section)

    # The benchmark calls these accessors; everything else reads the sections.
    def model_config(self, num_clusters: int) -> ModelConfig:
        return ModelConfig(num_clusters=num_clusters, hidden_dim=self.model.hidden_dim)

    def train_schedule(self) -> TrainSchedule:
        return self.training

    def tracker_config(self) -> TrackerConfig:
        return self.tracker

    def scene_spec(self) -> SceneSpec:
        return self.scene

    def to_dict(self) -> dict:
        """JSON-ready data; a seed equal to the one it would inherit is left out.

        Leaving it out keeps the section following the global seed, so a
        later ``apply_overrides(cfg, {"seed": n})`` still reaches it.
        """
        return _drop_inherited_seeds(dataclasses.asdict(self), self.seed)


def _drop_inherited_seeds(data: dict, seed: int) -> dict:
    for name in _SECTIONS:
        section = data.get(name)
        if isinstance(section, dict):
            if section.get("seed") == seed:
                del section["seed"]
            _drop_inherited_seeds(section, section.get("seed", seed))
    return data


# JSON value types each annotated field type accepts.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _check_type(path: str, value, hint) -> None:
    """Reject values whose JSON type does not fit the field's annotation."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None:
        if type(None) in kinds:
            return
        raise ConfigError(f"config key {path} does not accept null")
    kind = next(k for k in kinds if k is not type(None))
    allowed = _JSON_TYPES[kind]
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise ConfigError(f"config key {path} expects {kind.__name__}, got {type(value).__name__}")


def _build(cls, data, prefix: str, inherited_seed: int | None = None):
    """Build ``cls`` from JSON data, checking every key and value type.

    A section with a ``seed`` field that is absent or null takes
    ``inherited_seed``; nested sections inherit the section's own seed (or,
    if it has none, ``inherited_seed``), whether given in ``data`` or not.
    """
    section_name = prefix.rstrip(".") or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section_name} must be a JSON object")
    remaining = dict(data)
    hints = typing.get_type_hints(cls)
    if inherited_seed is not None and "seed" in hints and remaining.get("seed") is None:
        remaining["seed"] = inherited_seed
    kwargs = {}
    # Plain fields first, so the seed is checked before nested sections inherit it.
    for f in sorted(fields(cls), key=lambda f: f.name in _SECTIONS):
        if f.name in _SECTIONS:
            seed = kwargs.get("seed", getattr(cls, "seed", inherited_seed))
            section = remaining.pop(f.name, {})
            kwargs[f.name] = _build(_SECTIONS[f.name], section, f"{prefix}{f.name}.", seed)
        elif f.name in remaining:
            kwargs[f.name] = remaining.pop(f.name)
            _check_type(f"{prefix}{f.name}", kwargs[f.name], hints[f.name])
    if remaining:
        unknown = ", ".join(f"{prefix}{key}" for key in sorted(remaining))
        raise ConfigError(f"unknown config key: {unknown}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the section's own range checks
        raise ConfigError(f"config section {section_name}: {exc}") from None


def from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "")


def from_file(path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return from_dict(data)


def load_config(path=None) -> RunConfig:
    """Resolve the active config: explicit path, then $GAPTRACK_CONFIG, then defaults."""
    if path is not None:
        return from_file(path)
    env_path = os.environ.get(ENV_CONFIG)
    if env_path:
        return from_file(env_path)
    return RunConfig()


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Rebuild a config with dotted-path overrides, e.g. {"training.iterations": 100}.

    Override paths go through the same strict validation as file input, which
    also rejects an unknown last key.
    """
    data = config.to_dict()
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = data
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key: {dotted}")
            node = node[part]
        node[parts[-1]] = value
    return from_dict(data)
