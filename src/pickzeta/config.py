"""Run configuration: precision targets, truncations, output format."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace

from .errors import ValidationError

ENV_CONFIG = "PICKZETA_CONFIG"

FORMATS = ("json", "csv", "human")


@dataclass(frozen=True)
class RunConfig:
    zeta_abs_err: float = 1e-12
    psd_tol: float = 1e-10
    rank_tol: float = 1e-8
    trunc: int = 1000
    format: str = "json"

    def __post_init__(self):
        for name in ("zeta_abs_err", "psd_tol", "rank_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.trunc < 10:
            raise ValidationError("trunc must be at least 10")
        if self.format not in FORMATS:
            raise ValidationError(f"format must be one of {FORMATS}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        allowed = set(RunConfig().to_dict())
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config {path} must hold a JSON object")
        return RunConfig.from_dict(data)

    def override(self, **kwargs) -> "RunConfig":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **clean) if clean else self


def load_config(path: str | None = None) -> RunConfig:
    """Config from an explicit path, else $PICKZETA_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path:
        return RunConfig.from_file(path)
    return RunConfig()
