"""Run-wide configuration: tolerances, budgets, and seeded RNG streams.

All randomness in the package flows through derive_rng so that a single
top-level seed plus a component label reproduces every draw exactly,
independent of call order.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

DEFAULT_TOL = 1e-9

# Step budget for the energy-increment driver.
DEFAULT_DRIVER_BUDGET = 10 ** 6

# Node budget for recursive certificate constructions.
DEFAULT_CERT_NODE_BUDGET = 200_000

# Decimal-digit guard for the tower-type recurrence bounds.
DEFAULT_DIGIT_LIMIT = 10 ** 6

VERSION = "0.1.0"


def _label_entropy(label: str) -> int:
    # stable across platforms/processes; Python's hash() is salted, so no
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Deterministic child generator for (seed, component label, counters)."""
    ss = np.random.SeedSequence([int(seed), _label_entropy(label), *map(int, indices)])
    return np.random.default_rng(ss)


# Node budget for the van der Waerden backtracking search.
DEFAULT_VDW_NODES = 10 ** 9


@dataclass
class RunConfig:
    """Bundle of knobs shared by the CLI and the high-level drivers."""

    seed: int = 0
    tol: float = DEFAULT_TOL
    driver_steps: int = DEFAULT_DRIVER_BUDGET
    cert_nodes: int = DEFAULT_CERT_NODE_BUDGET
    vdw_nodes: int = DEFAULT_VDW_NODES
    digit_limit: int = DEFAULT_DIGIT_LIMIT

    def digest(self) -> str:
        payload = asdict(self)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
