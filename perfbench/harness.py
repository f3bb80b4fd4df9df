"""Lockstep harness and correctness gates for the nanopair benchmark.

Worlds are built only through nanopair's public API. Every rank's
`driver.rank_program` generator is advanced one barrier at a time from a
single thread, the round-robin runner the `nanopair.comm` docstring
describes. The harness times each rank's slice between barriers; nothing
inside the program is timed here (see `tracing.py` for the traced run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from nanopair.backend import SerialBackend
from nanopair.comm import (
    MailboxTransport,
    RankDomain,
    RankWorld,
    define_borders,
    exchange,
    factor_rank_grid,
    rank_grid_coords,
    six_stencil_pattern,
    slab_bounds,
)
from nanopair.core import SimConfig
from nanopair.driver import RankReport, rank_program
from nanopair.layout import layout_from_config
from nanopair.neighbor import build_cell_grid, build_neighbor_lists
from nanopair.particles import ParticleStore, lattice_positions
from nanopair.potential import compute_forces, law_from_config

# miniMD defaults: FCC, rho = 0.8442, r_c = 2.5, skin 0.3, rebuild every 20.
_LJ = SimConfig(unit_cells=(12, 12, 12))
# Spring-dashpot spheres: nearest neighbour 0.98 < d = 1 at rho = 1.5, and the
# cutoff equals d (a larger cutoff only lengthens the lists, see README). The
# compressed packing relaxes into the empty half and the fastest spheres reach
# speed ~2.3, so lists are rebuilt every 10 steps and initial speeds halved:
# at every 20 steps the displacement guard trips within ~100 steps.
_SD = SimConfig(
    unit_cells=(24, 24, 24),
    lattice_density=1.5,
    potential_kind="sd",
    stiffness=100.0,
    damping=0.0,
    diameter=1.0,
    cutoff=1.0,
    fill="half-diagonal",
    half_neighbor=True,
    reneigh_interval=10,
    velocity_scale=0.5,
)

# Reference comparison: max |dx|, |dv| against the P = 1, AoS run.
EQUIVALENCE_TOL = 1e-12
# Total-momentum drift, per particle (measured at most 1e-15 on these workloads).
MOMENTUM_TOL_PER_PARTICLE = 1e-12
# NVE drift of the total energy, per particle (LJ workloads only).
ENERGY_TOL_PER_PARTICLE = 2e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration; README.md says why each was chosen."""

    name: str
    cfg: SimConfig
    ranks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lj-p1-full", _LJ.with_overrides(half_neighbor=False, layout_kind="aos"), 1),
        Workload("lj-p8-half", _LJ.with_overrides(half_neighbor=True, layout_kind="soa"), 8),
        Workload("sd-halfdiag-p2", _SD.with_overrides(layout_kind="aosoa", aosoa_cluster=8), 2),
    )
}


class GateError(RuntimeError):
    """A correctness gate failed; the run's numbers must not be reported."""


def initial_state(cfg: SimConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice positions and zero-momentum velocities drawn from `seed`."""
    pos = lattice_positions(cfg, cfg.domain())
    rng = np.random.default_rng(seed)
    vel = (rng.random(pos.shape) - 0.5) * cfg.velocity_scale
    vel -= vel.mean(axis=0)
    return pos, vel


@dataclass
class World:
    cfg: SimConfig
    worlds: list[RankWorld]
    stores: list[ParticleStore]
    transport: MailboxTransport
    n_particles: int

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        pos = np.vstack([s.local_positions() for s in self.stores])
        vel = np.vstack([s.local_velocities() for s in self.stores])
        return pos, vel


def build_world(cfg, ranks, pos, vel, transport_cls=MailboxTransport) -> World:
    """Stencil-pattern world on slabs of the default rank grid, lattice scattered by ownership."""
    box = cfg.domain()
    grid = factor_rank_grid(ranks)
    layout = layout_from_config(cfg.layout_kind, cfg.aosoa_cluster)
    spacing = cfg.interaction_radius()
    transport = transport_cls(ranks)
    owner = np.full(pos.shape[0], -1)
    worlds, stores = [], []
    for r in range(ranks):
        domain = RankDomain(rank=r, ownership=[slab_bounds(box, grid, rank_grid_coords(r, grid))], spacing=spacing)
        mine = domain.owns(pos)
        if np.any(owner[mine] >= 0):
            raise GateError(f"rank {r} claims a particle another rank owns")
        owner[mine] = r
        store = ParticleStore(layout, capacity=max(int(mine.sum()), 1))
        store.append_locals(pos[mine], vel[mine])
        stores.append(store)
        worlds.append(
            RankWorld(ranks, r, transport, box, domain, six_stencil_pattern(grid, r, box, spacing))
        )
    if np.any(owner < 0):
        raise GateError("a lattice site is owned by no rank")
    return World(cfg, worlds, stores, transport, pos.shape[0])


# Machine-speed yardstick. Wall times on a shared machine drift by up to 1.7x
# over stretches of 10-60 s, and process CPU time drifts with them; a fixed
# pure-Python loop timed next to every step drifts the same way (the ratio
# of a force evaluation to it moved 3x less than the force time itself).
# REF_NOMINAL_S is the loop's time on an uncontended 2-vCPU x86_64 VM under
# Python 3.11, so scaled times read as milliseconds on that machine.
REF_LOOP = 40_000
REF_NOMINAL_S = 2.4e-3
# Steps on each side of a step whose reference samples set its scale.
REF_WINDOW = 5


def reference_seconds() -> float:
    """Wall time of the fixed pure-Python yardstick loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def speed_scale(ref: list[float]) -> float:
    """Factor that maps wall time measured next to these reference samples to reference-machine time."""
    return REF_NOMINAL_S / float(np.median(ref))


@dataclass
class StepStats:
    """Timings of one segment's step loop (steps 1..N, setup excluded)."""

    step_wall: list[float] = field(default_factory=list)
    step_slowest: list[float] = field(default_factory=list)  # per step: sum over rounds of the slowest slice
    ref: list[float] = field(default_factory=list)  # yardstick time taken right after each step
    busy: np.ndarray | None = None  # per-rank sum of slices
    wait: np.ndarray | None = None  # per-rank sum of (slowest slice - own slice)
    reports: list[RankReport] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.step_wall)

    @property
    def loop_wall(self) -> float:
        return float(sum(self.step_wall))

    def scales(self) -> np.ndarray:
        """Per-step speed scale from the yardstick samples within REF_WINDOW steps."""
        ref = np.asarray(self.ref)
        return np.array(
            [speed_scale(ref[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1]) for k in range(ref.size)]
        )


class Lockstep:
    """Advances rank programs one barrier round at a time, timing each slice.

    `observer`, when given, has `rank` and `step` attributes set before each
    slice, so a tracer can label what the slice records.
    """

    def __init__(self, gens, observer=None):
        self.gens = gens
        self.observer = observer
        self.step = 0

    def _round(self):
        slices = np.empty(len(self.gens))
        tokens = []
        obs = self.observer
        for r, gen in enumerate(self.gens):
            if obs is not None:
                obs.rank, obs.step = r, self.step
            t0 = time.perf_counter()
            try:
                tokens.append(next(gen))
            except StopIteration as stop:
                tokens.append(stop.value)
            slices[r] = time.perf_counter() - t0
        first = tokens[0]
        for r, tok in enumerate(tokens[1:], start=1):
            same = isinstance(tok, RankReport) if isinstance(first, RankReport) else tok == first
            if not same:
                raise GateError(f"ranks left lockstep at step {self.step}: rank 0 gave {first!r}, rank {r} gave {tok!r}")
        return first, tokens, slices

    def close(self) -> None:
        for gen in self.gens:
            gen.close()

    def to_step0(self) -> None:
        while True:
            first, _, _ = self._round()
            if first == ("step", 0):
                self.step = 1
                return
            if first is not None:
                raise GateError(f"unexpected barrier token during setup: {first!r}")

    def run_steps(self) -> StepStats:
        p = len(self.gens)
        stats = StepStats(busy=np.zeros(p), wait=np.zeros(p))
        step_slowest = 0.0
        mark = time.perf_counter()
        while True:
            first, tokens, slices = self._round()
            if isinstance(first, RankReport):
                stats.reports = tokens
                return stats
            slowest = slices.max()
            step_slowest += slowest
            stats.busy += slices
            stats.wait += slowest - slices
            if first is not None:
                if first != ("step", self.step):
                    raise GateError(f"expected step {self.step} barrier, got {first!r}")
                stats.step_wall.append(time.perf_counter() - mark)
                stats.step_slowest.append(step_slowest)
                stats.ref.append(reference_seconds())
                step_slowest = 0.0
                mark = time.perf_counter()
                self.step += 1


def start_segment(world: World, steps: int, observer=None) -> Lockstep:
    """Create every rank's program for `steps` steps and advance it to ("step", 0)."""
    cfg = world.cfg.with_overrides(steps=steps)
    backend = SerialBackend()  # NANOPAIR_THREADS must not change results
    gens = [rank_program(cfg, w, s, backend=backend) for w, s in zip(world.worlds, world.stores)]
    lock = Lockstep(gens, observer)
    lock.to_step0()
    return lock


def finish_segment(world: World, lock: Lockstep, steps: int) -> StepStats:
    """Run the step loop to completion and apply the per-segment gates."""
    stats = lock.run_steps()
    if stats.steps != steps:
        raise GateError(f"step loop ran {stats.steps} steps, expected {steps}")
    pending = world.transport.pending()
    if pending:
        raise GateError(f"transport holds {pending} undelivered messages after the run")
    for rep in stats.reports:
        if rep.steps != steps:
            raise GateError(f"rank {rep.rank} reports {rep.steps} steps, expected {steps}")
    total = sum(rep.n_local for rep in stats.reports)
    if total != world.n_particles or total != sum(s.n_local for s in world.stores):
        raise GateError(f"particle count changed: {world.n_particles} -> {total}")
    return stats


def run_segment(world: World, steps: int, observer=None) -> StepStats:
    return finish_segment(world, start_segment(world, steps, observer), steps)


def momentum(stats: StepStats) -> np.ndarray:
    return np.sum([rep.momentum_final for rep in stats.reports], axis=0)


def check_momentum(p0: np.ndarray, p1: np.ndarray, n: int) -> float:
    drift = float(np.abs(p1 - p0).max())
    if drift > MOMENTUM_TOL_PER_PARTICLE * n:
        raise GateError(f"total momentum drifted by {drift:.3g} (bound {MOMENTUM_TOL_PER_PARTICLE * n:.3g})")
    return drift


def total_energy(cfg: SimConfig, pos: np.ndarray, vel: np.ndarray) -> float:
    """KE + PE of a gathered state, PE from `compute_forces(accumulate_energy=True)`.

    Full lists on one rank: with half lists every pair that involves a ghost
    is counted from both sides (see README, defects).
    """
    cfg = cfg.with_overrides(half_neighbor=False, layout_kind="aos")
    world = build_world(cfg, 1, pos, vel)
    w, store = world.worlds[0], world.stores[0]
    for phase in (exchange(w, store), define_borders(w, store)):
        for _ in phase:
            pass
    r = cfg.interaction_radius()
    grid = build_cell_grid(store, w.domain.grid_box_for(store), r)
    lists = build_neighbor_lists(store, grid, r, half=False)
    pe = compute_forces(store, lists, law_from_config(cfg), backend=SerialBackend(), accumulate_energy=True)
    return pe + 0.5 * cfg.mass * float((vel * vel).sum())


def check_energy(e0: float, e1: float, n: int) -> float:
    drift = abs(e1 - e0) / n
    if drift > ENERGY_TOL_PER_PARTICLE:
        raise GateError(f"NVE energy drifted by {drift:.3g} per particle (bound {ENERGY_TOL_PER_PARTICLE})")
    return drift


def _max_deviation(ext, ref_x, ref_v, x, v) -> float:
    """Largest |dx| (minimum image) or |dv| after matching each particle to its nearest reference."""
    if x.shape != ref_x.shape:
        raise GateError(f"particle count {x.shape[0]} differs from the reference {ref_x.shape[0]}")
    match = np.empty(x.shape[0], dtype=np.int64)
    for s in range(0, x.shape[0], 256):
        d = x[s : s + 256, None, :] - ref_x[None, :, :]
        d -= ext * np.round(d / ext)
        match[s : s + 256] = np.argmin(np.einsum("ijk,ijk->ij", d, d), axis=1)
    if np.unique(match).size != match.size:
        raise GateError("final states do not match particle for particle")
    dx = x - ref_x[match]
    dx -= ext * np.round(dx / ext)
    return float(max(np.abs(dx).max(), np.abs(v - ref_v[match]).max()))


def check_equivalence(wl: Workload, seed: int) -> float:
    """A 6^3 run of the workload's physics, layout and P against P = 1 in AoS."""
    cfg = wl.cfg.with_overrides(unit_cells=(6, 6, 6), reneigh_interval=10).validate()
    pos, vel = initial_state(cfg, seed)
    finals = []
    for c, ranks in ((cfg.with_overrides(layout_kind="aos"), 1), (cfg, wl.ranks)):
        world = build_world(c, ranks, pos, vel)
        run_segment(world, 40)
        finals.append(world.gather())
    (rx, rv), (x, v) = finals
    dev = _max_deviation(cfg.domain().extent(), rx, rv, x, v)
    if not dev <= EQUIVALENCE_TOL:
        raise GateError(f"P = {wl.ranks} deviates from P = 1 by {dev:.3g} (bound {EQUIVALENCE_TOL})")
    return dev
