"""Geometric primitives, periodic-boundary arithmetic, and simulation configuration.

Everything works in dimensionless reduced units (epsilon = sigma = mass = 1
for the default Lennard-Jones setup). All reals are double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Vec3",
    "AABB",
    "SimConfig",
    "ConfigError",
    "pbc_correct",
    "minimum_image",
    "aabb_distance",
]


class ConfigError(ValueError):
    """A configuration value violates an invariant; the message names the field."""


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector of doubles."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "Vec3":
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm2(self) -> float:
        return self.dot(self)

    def norm(self) -> float:
        return math.sqrt(self.norm2())


@dataclass(frozen=True)
class AABB:
    """Axis-aligned box with inclusive lower and exclusive upper bounds."""

    min: Vec3
    max: Vec3

    def __post_init__(self) -> None:
        if not (self.min.x <= self.max.x and self.min.y <= self.max.y and self.min.z <= self.max.z):
            raise ValueError(f"inverted AABB: {self.min} > {self.max}")

    @classmethod
    def from_arrays(cls, lo, hi) -> "AABB":
        return cls(Vec3.from_array(lo), Vec3.from_array(hi))

    @classmethod
    def cube(cls, lo: float, hi: float) -> "AABB":
        return cls(Vec3(lo, lo, lo), Vec3(hi, hi, hi))

    @property
    def lo(self) -> np.ndarray:
        return self.min.as_array()

    @property
    def hi(self) -> np.ndarray:
        return self.max.as_array()

    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def volume(self) -> float:
        return float(np.prod(self.extent()))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership test for an (n, 3) array of points."""
        p = np.atleast_2d(points)
        return np.all((p >= self.lo) & (p < self.hi), axis=1)


def aabb_distance(points: np.ndarray, box: AABB, ord: str = "linf") -> np.ndarray:
    """Distance from each point to the box (0 inside).

    `ord` is "linf" (max over per-axis gaps) or "l2" (Euclidean).
    """
    p = np.atleast_2d(points)
    gap = np.maximum(np.maximum(box.lo - p, p - box.hi), 0.0)
    if ord == "linf":
        return gap.max(axis=1)
    if ord == "l2":
        return np.sqrt((gap * gap).sum(axis=1))
    raise ValueError(f"unknown distance order {ord!r}")


def pbc_correct(p, global_box: AABB):
    """Wrap positions into [min, max) by integer multiples of the domain length.

    In-domain points pass through untouched, which makes the function exactly
    idempotent. Accepts a Vec3 or an (n, 3) array; returns the same kind.
    """
    if isinstance(p, Vec3):
        return Vec3.from_array(pbc_correct(p.as_array()[None, :], global_box)[0])
    lo, hi = global_box.lo, global_box.hi
    length = hi - lo
    if np.any(length <= 0):
        raise ValueError("domain must have positive extent in all dimensions")
    pts = np.array(p, dtype=np.float64)
    inside = (pts >= lo) & (pts < hi)
    wrapped = lo + np.mod(pts - lo, length)
    # mod can land exactly on the upper bound through rounding
    wrapped = np.where(wrapped >= hi, wrapped - length, wrapped)
    wrapped = np.where(wrapped < lo, lo, wrapped)
    return np.where(inside, pts, wrapped)


def minimum_image(delta, global_box: AABB):
    """Map a separation vector into (-L/2, L/2] per component.

    Valid for |delta| < 1.5 L; callers handling larger separations should wrap
    positions first.
    """
    if isinstance(delta, Vec3):
        return Vec3.from_array(minimum_image(delta.as_array()[None, :], global_box)[0])
    length = global_box.extent()
    d = np.array(delta, dtype=np.float64)
    return d - length * np.ceil(d / length - 0.5)


_LAYOUT_KINDS = ("aos", "soa", "aosoa")
_POTENTIALS = ("lj", "sd")
_FILLS = ("full", "half-diagonal")


@dataclass(frozen=True)
class SimConfig:
    """Full description of a run: lattice, force law, cadence, and layout.

    `layout_kind` is "aos", "soa", or "aosoa"; `aosoa_cluster` only matters for
    the clustered layout and must be a power of two.
    """

    unit_cells: tuple[int, int, int] = (32, 32, 32)
    particles_per_cell: int = 4
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
    rng_seed: int = 42
    velocity_scale: float = 1.0
    fill: str = "full"

    def validate(self) -> "SimConfig":
        uc = self.unit_cells
        if len(uc) != 3 or any((not isinstance(n, int)) or n <= 0 for n in uc):
            raise ConfigError(f"unit_cells must be three positive integers, got {uc!r}")
        if self.particles_per_cell not in (1, 2, 4):
            raise ConfigError(
                f"particles_per_cell must be 1, 2, or 4 (lattice basis), got {self.particles_per_cell}"
            )
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
        return (self.particles_per_cell / self.lattice_density) ** (1.0 / 3.0)

    def domain(self) -> AABB:
        a = self.lattice_constant()
        nx, ny, nz = self.unit_cells
        return AABB(Vec3(0.0, 0.0, 0.0), Vec3(nx * a, ny * a, nz * a))

    def with_overrides(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)
