"""Seeded random streams with named substreams.

All randomness in the package flows through `substream(seed, name)`, so
initialization, data ordering and synthesis are independently
reproducible: changing how one consumer draws cannot perturb another.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def substream(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for (seed, name); a negative seed is a
    ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
