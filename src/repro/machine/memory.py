"""System-level (memory) models (Section 4.5).

Three families, mirroring the paper exactly:

* :class:`CacheMemory` -- ``Lhr(hl,ml)``: a lockup-free data cache with
  hit rate ``hr``; a load takes ``hl`` cycles on a hit, ``ml`` on a
  miss ("a typical workstation-class RISC processor").
* :class:`NetworkMemory` -- ``N(mu,sigma)``: no cache; a hashed
  multipath interconnect whose latency is a zero-based discretised
  normal distribution (Tera-style machines).
* :class:`MixedMemory` -- ``L80-N(30,5)``: a cache in front of a
  Tera-style network (Alewife-like systems); hits take ``hl`` cycles,
  misses sample the network distribution.

"Zero-based" is resolved as: samples are rounded to the nearest cycle
and clamped below at 1 (load data can never be consumed in the load's
own issue cycle).  DESIGN.md records this choice.

Every model exposes ``sample_many`` (vectorised, for the 30-run
simulations) and the latencies a *traditional* scheduler would assume:
``optimistic_latencies`` (Table 2 evaluates the baseline at both the
most optimistic figure and the effective mean for cache/mixed models).
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

MIN_LATENCY = 1


class MemorySystem(abc.ABC):
    """A distribution of load-instruction latencies."""

    #: Display name, e.g. ``"L80(2,5)"``.
    name: str

    @abc.abstractmethod
    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integer latencies (cycles)."""

    @property
    @abc.abstractmethod
    def mean_latency(self) -> float:
        """The expected latency (the 'effective access time')."""

    @property
    @abc.abstractmethod
    def optimistic_latencies(self) -> Tuple[float, ...]:
        """Latency constants a traditional scheduler might be given."""

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> int:
        """Draw one latency."""
        return int(self.sample_many(rng, 1)[0])

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class FixedMemory(MemorySystem):
    """Deterministic latency (unit tests and the Figure 3 sweep)."""

    def __init__(self, latency: int):
        if latency < MIN_LATENCY:
            raise ValueError("latency must be >= 1")
        self.latency = latency
        self.name = f"FIXED({latency})"

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.latency, dtype=np.int64)

    @property
    def mean_latency(self) -> float:
        return float(self.latency)

    @property
    def optimistic_latencies(self) -> Tuple[float, ...]:
        return (float(self.latency),)


class CacheMemory(MemorySystem):
    """``Lhr(hl,ml)``: Bernoulli hit/miss latency."""

    def __init__(self, hit_rate: float, hit_latency: int, miss_latency: int):
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError("hit_rate must be within [0, 1]")
        if hit_latency < MIN_LATENCY or miss_latency < hit_latency:
            raise ValueError("need miss_latency >= hit_latency >= 1")
        self.hit_rate = hit_rate
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.name = f"L{round(hit_rate * 100)}({hit_latency},{miss_latency})"

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        hits = rng.random(n) < self.hit_rate
        return np.where(hits, self.hit_latency, self.miss_latency).astype(np.int64)

    @property
    def mean_latency(self) -> float:
        return (
            self.hit_rate * self.hit_latency
            + (1.0 - self.hit_rate) * self.miss_latency
        )

    @property
    def optimistic_latencies(self) -> Tuple[float, ...]:
        """Hit time, then effective access time (Table 2's two baselines)."""
        return (float(self.hit_latency), round(self.mean_latency, 2))


class NetworkMemory(MemorySystem):
    """``N(mu,sigma)``: zero-based discretised normal latency."""

    def __init__(self, mean: float, std: float):
        if mean < MIN_LATENCY:
            raise ValueError("mean must be >= 1")
        if std < 0:
            raise ValueError("std must be >= 0")
        self.mean = float(mean)
        self.std = float(std)
        self.name = f"N({mean:g},{std:g})"

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raw = rng.normal(self.mean, self.std, size=n)
        return np.maximum(np.rint(raw), MIN_LATENCY).astype(np.int64)

    @property
    def mean_latency(self) -> float:
        # Clamping at 1 shifts the mean upward slightly; for the paper's
        # configurations the shift is small and the *scheduler-visible*
        # mean remains the distribution parameter.
        return self.mean

    @property
    def optimistic_latencies(self) -> Tuple[float, ...]:
        """The mean of the distribution (Section 5)."""
        return (self.mean,)


class MixedMemory(MemorySystem):
    """``Lhr-N(mu,sigma)``: cache hits, network-latency misses."""

    def __init__(
        self,
        hit_rate: float,
        hit_latency: int,
        miss_mean: float,
        miss_std: float,
    ):
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError("hit_rate must be within [0, 1]")
        self.hit_rate = hit_rate
        self.hit_latency = hit_latency
        self.miss = NetworkMemory(miss_mean, miss_std)
        self.name = (
            f"L{round(hit_rate * 100)}-N({miss_mean:g},{miss_std:g})"
        )

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        hits = rng.random(n) < self.hit_rate
        misses = self.miss.sample_many(rng, n)
        return np.where(hits, self.hit_latency, misses).astype(np.int64)

    @property
    def mean_latency(self) -> float:
        return (
            self.hit_rate * self.hit_latency
            + (1.0 - self.hit_rate) * self.miss.mean
        )

    @property
    def optimistic_latencies(self) -> Tuple[float, ...]:
        """Hit time, then the effective mean (e.g. 2 and 7.6)."""
        return (float(self.hit_latency), round(self.mean_latency, 2))
