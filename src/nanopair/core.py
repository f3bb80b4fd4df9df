"""Geometric primitives and simulation configuration.

Everything works in dimensionless reduced units (epsilon = sigma = mass = 1
for the default Lennard-Jones setup). All reals are double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "AABB",
    "SimConfig",
    "ConfigError",
]


class ConfigError(ValueError):
    """A configuration value violates an invariant; the message names the field."""


@dataclass(frozen=True)
class AABB:
    """Axis-aligned box with inclusive lower and exclusive upper bounds.

    `min` and `max` are (x, y, z) tuples of floats.
    """

    min: tuple[float, float, float]
    max: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not all(a <= b for a, b in zip(self.min, self.max)):
            raise ValueError(f"inverted AABB: {self.min} > {self.max}")

    @classmethod
    def from_arrays(cls, lo, hi) -> "AABB":
        return cls(tuple(float(v) for v in lo), tuple(float(v) for v in hi))

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.min, dtype=np.float64)

    @property
    def hi(self) -> np.ndarray:
        return np.array(self.max, dtype=np.float64)

    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership test for an (n, 3) array of points (or one (3,) point)."""
        p = np.atleast_2d(points)
        inside = np.ones(p.shape[0], dtype=bool)
        # one axis at a time against scalar bounds: an (n, 3) against (3,)
        # comparison would run numpy's inner loop three elements at a time
        for d, (lo, hi) in enumerate(zip(self.min, self.max)):
            inside &= p[:, d] >= lo
            inside &= p[:, d] < hi
        return inside


_LAYOUT_KINDS = ("aos", "soa", "aosoa")
_POTENTIALS = ("lj", "sd")
_FILLS = ("full", "half-diagonal")
_INT_FIELDS = ("steps", "reneigh_interval", "aosoa_cluster")


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool (True would count as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)

_REAL_FIELDS = (
    "lattice_density", "dt", "cutoff", "verlet_buffer", "epsilon", "sigma",
    "stiffness", "damping", "diameter", "mass", "velocity_scale",
)


@dataclass(frozen=True)
class SimConfig:
    """Full description of a run: lattice, force law, cadence, and layout.

    `layout_kind` is "aos", "soa", or "aosoa"; `aosoa_cluster` only matters for
    the clustered layout and must be a power of two.
    """

    unit_cells: tuple[int, int, int] = (32, 32, 32)
    lattice_density: float = 0.8442
    dt: float = 0.005
    steps: int = 100
    cutoff: float = 2.5
    verlet_buffer: float = 0.3
    reneigh_interval: int = 20
    potential_kind: str = "lj"
    epsilon: float = 1.0
    sigma: float = 1.0
    stiffness: float = 100.0
    damping: float = 0.0
    diameter: float = 1.0
    half_neighbor: bool = False
    layout_kind: str = "aos"
    aosoa_cluster: int = 8
    mass: float = 1.0
    velocity_scale: float = 1.0
    fill: str = "full"

    def validate(self) -> "SimConfig":
        uc = self.unit_cells
        if len(uc) != 3 or not all(_is_integer(n) and n > 0 for n in uc):
            raise ConfigError(f"unit_cells must be three positive integers, got {uc!r}")
        # 4.0 would pass the checks below, and a float cluster size breaks the power-of-two test
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # every comparison below is False for NaN, so finiteness is checked first
        for name in _REAL_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lattice_density", "cutoff", "sigma", "epsilon", "diameter", "mass"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("verlet_buffer", "stiffness", "damping", "velocity_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, got {self.steps}")
        if self.reneigh_interval <= 0:
            raise ConfigError(f"reneigh_interval must be positive, got {self.reneigh_interval}")
        if self.verlet_buffer == 0 and self.reneigh_interval > 1:
            raise ConfigError(
                f"verlet_buffer must be positive when reneigh_interval > 1 (got "
                f"{self.reneigh_interval}): lists built without a buffer are outlived by the "
                "first move, so the step after a rebuild would always fail"
            )
        if self.potential_kind not in _POTENTIALS:
            raise ConfigError(f"potential_kind must be one of {_POTENTIALS}, got {self.potential_kind!r}")
        if self.layout_kind not in _LAYOUT_KINDS:
            raise ConfigError(f"layout_kind must be one of {_LAYOUT_KINDS}, got {self.layout_kind!r}")
        if self.layout_kind == "aosoa":
            c = self.aosoa_cluster
            if c < 1 or (c & (c - 1)) != 0:
                raise ConfigError(f"aosoa_cluster must be a power of two, got {c}")
        if self.potential_kind == "sd":
            if self.cutoff < self.diameter:
                raise ConfigError(
                    f"cutoff ({self.cutoff}) must be at least the sphere diameter "
                    f"({self.diameter}) for potential_kind='sd', or lists drop contacts"
                )
            if self.damping > 0:
                raise ConfigError(
                    f"damping must be 0 for potential_kind='sd' (got {self.damping}): "
                    "ghost copies carry no velocity, so the dashpot is wrong across rank faces"
                )
        if self.fill not in _FILLS:
            raise ConfigError(f"fill must be one of {_FILLS}, got {self.fill!r}")
        if self.interaction_radius() <= 0:
            raise ConfigError("cutoff + verlet_buffer must be positive")
        ext = self.domain().extent()
        if np.any(ext < self.interaction_radius()):
            raise ConfigError(
                f"domain extent {ext} smaller than interaction radius "
                f"{self.interaction_radius()}; enlarge the lattice"
            )
        return self

    def interaction_radius(self) -> float:
        """Neighbor-list reach: cutoff plus the Verlet buffer."""
        return self.cutoff + self.verlet_buffer

    def lattice_constant(self) -> float:
        """Edge of the FCC unit cell (four sites) at `lattice_density`."""
        return (4 / self.lattice_density) ** (1.0 / 3.0)

    def domain(self) -> AABB:
        a = self.lattice_constant()
        nx, ny, nz = self.unit_cells
        return AABB((0.0, 0.0, 0.0), (nx * a, ny * a, nz * a))

    def with_overrides(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)
