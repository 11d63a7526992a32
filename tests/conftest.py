"""Shared test helpers: random valid configurations and small oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from shintani.coefficients import CoefficientSpec
from shintani.series import ShintaniConfig

# `pytest --hypothesis-profile=ci`: the same examples on every run, and more of them
settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)


def random_config(rng: np.random.Generator, allow_sparse: bool = True) -> ShintaniConfig:
    """A random valid configuration with a certified polynomial tail route."""
    r = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    d = int(rng.integers(1, 3))
    lam = rng.uniform(0.4, 2.0, size=(m, r))
    u = rng.uniform(0.3, 1.5, size=r)
    c = rng.uniform(0.6, 1.4, size=(m, d))
    kind_pool = ["constant", "periodic", "geometric"]
    if allow_sparse and r == 1:
        kind_pool.append("finite_support")
    kind = kind_pool[int(rng.integers(0, len(kind_pool)))]
    if kind == "constant":
        theta = CoefficientSpec.constant(float(rng.uniform(0.2, 2.0)))
    elif kind == "periodic":
        mods = tuple(int(rng.integers(1, 4)) for _ in range(r))
        table = rng.uniform(-1.0, 1.0, size=mods)
        theta = CoefficientSpec.periodic(mods, table)
    elif kind == "geometric":
        ratios = rng.uniform(0.2, 0.95, size=r)
        theta = CoefficientSpec.geometric(tuple(ratios))
    else:
        pts = {(int(n),): float(rng.uniform(-2.0, 2.0)) for n in rng.integers(0, 12, size=4)}
        theta = CoefficientSpec.finite_support(pts)
    return ShintaniConfig(d=d, m=m, r=r, lam=lam, u=u, c=c, theta=theta)


def region_sigma(config: ShintaniConfig, rng: np.random.Generator, margin: float = 0.6) -> np.ndarray:
    """A sigma vector comfortably inside the convergence region."""
    base = rng.uniform(0.5, 1.5, size=config.d)
    scale = (config.r / config.m + margin) / float(np.min(config.c @ base))
    return base * scale
