"""Deterministic seed derivation.

All randomness in the package flows from a single root seed.  Child
streams are derived from (root, *key) tuples, so results do not depend
on execution order.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import InputError


def _key_to_ints(key: tuple) -> tuple[int, ...]:
    out = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            out.append(int(part) & 0xFFFFFFFF)
        elif isinstance(part, str):
            out.append(zlib.crc32(part.encode("utf-8")))
        else:
            raise TypeError(f"seed key parts must be int or str, got {type(part)!r}")
    return tuple(out)


def child_seed_sequence(root: int, *key) -> np.random.SeedSequence:
    """The seed sequence of the stream (root, *key); every seed enters here."""
    root = int(root)
    if root < 0:
        raise InputError(f"seed must be a non-negative integer, got {root}")
    return np.random.SeedSequence(entropy=root, spawn_key=_key_to_ints(key))


def child_rng(root: int, *key) -> np.random.Generator:
    """Generator for the stream identified by (root, *key)."""
    return np.random.default_rng(child_seed_sequence(root, *key))
