"""Velocity-Verlet time integration and per-step orchestration.

A rank's whole run is a generator (see `rank_program`): communication phases
yield at their internal barriers, and the driver yields a ("step", k) marker
after completing step k, which doubles as the global barrier the harness uses
for trajectory dumps. Step order:

1. half-kick + drift;
2. on every reneigh_interval-th step, a full epoch: balance, exchange,
   borders, then the cell grid and the lists are rebuilt;
3. on any other step, the ranks all-gather their largest displacement since
   the last rebuild. If the largest of all reaches half the Verlet buffer,
   every rank starts a full epoch at this step; otherwise the ghosts are
   refreshed and the lists stay;
4. forces, then the closing half-kick.

Each rank's `PhaseTimers` count only the time its own program runs: the
clock of a communication phase stops at every barrier (see `_timed`), while
the other ranks run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .comm import (
    RankWorld,
    balance_slabs,
    define_borders,
    exchange,
    gather_displacements,
    synchronize,
)
from .core import SimConfig
from .errors import GuardViolation
from .neighbor import build_cell_grid, build_neighbor_lists, max_displacement_since_rebuild
from .particles import ParticleStore
from .potential import compute_forces, law_from_config

__all__ = ["PhaseTimers", "SimState", "RankReport", "initial_integrate", "final_integrate", "rank_program"]


@dataclass
class PhaseTimers:
    force: float = 0.0
    neigh: float = 0.0
    comm: float = 0.0
    other: float = 0.0

    def add(self, phase: str, seconds: float) -> None:
        setattr(self, phase, getattr(self, phase) + seconds)

    @contextmanager
    def track(self, phase: str):
        """Time a block that does not yield (see `_timed` for one that does)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - t0)

    def total(self) -> float:
        return self.force + self.neigh + self.comm + self.other


@dataclass
class SimState:
    """Everything one rank mutates while stepping."""

    step: int
    store: ParticleStore
    lists: object = None
    plan: object = None
    timers: PhaseTimers = field(default_factory=PhaseTimers)
    steps_since_rebuild: int = 0
    max_displacement_seen: float = 0.0
    rebuilds: int = 0  # list rebuilds in the step loop, scheduled or triggered


@dataclass
class RankReport:
    rank: int
    n_local: int
    momentum_initial: np.ndarray
    momentum_final: np.ndarray
    timers: PhaseTimers
    max_displacement_seen: float
    steps: int
    rebuilds: int  # list rebuilds in steps 1..steps, scheduled or triggered


def initial_integrate(store: ParticleStore, dt: float, mass: float) -> None:
    """Half-kick then drift: v += dt/2 F/m, x += dt v (locals only).

    One compiled loop (`kick_drift`) updates the layout buffers in place,
    element by element, with numpy's operations: v += k * f, then x += dt * v.
    """
    if store.n_local == 0 or dt == 0.0:
        return
    v = store.velocities
    kernel.library().kick_drift(
        v.map_address, store.n_local, 0.5 * dt / mass, dt,
        v.address, store.forces.address, store.positions.address,
    )


def final_integrate(store: ParticleStore, dt: float, mass: float) -> None:
    """Closing half-kick against the freshly computed forces, by one compiled loop (`kick`)."""
    if store.n_local == 0 or dt == 0.0:
        return
    v = store.velocities
    kernel.library().kick(v.map_address, store.n_local, 0.5 * dt / mass, v.address, store.forces.address)


def _momentum(store: ParticleStore, mass: float) -> np.ndarray:
    if store.n_local == 0:
        return np.zeros(3)
    return mass * store.local_velocities().sum(axis=0)


def _timed(timers: PhaseTimers, phase: str, gen):
    """Run a phase generator to its end, passing on its barrier tokens.

    The clock runs only while `gen` runs and stops at each yield, so
    `phase` counts this rank's own slices, not the other ranks' slices
    between them.
    """
    while True:
        t0 = time.perf_counter()
        try:
            token = next(gen)
        except StopIteration as stop:
            return stop.value
        finally:
            timers.add(phase, time.perf_counter() - t0)
        yield token


def _reneighbor(state: SimState, world: RankWorld, cfg: SimConfig):
    """Full epoch: balance slabs, exchange, borders, re-bin, rebuild lists."""
    timers, store = state.timers, state.store
    yield from _timed(timers, "comm", balance_slabs(world, store))
    yield from _timed(timers, "comm", exchange(world, store))
    state.plan = yield from _timed(timers, "comm", define_borders(world, store))
    with timers.track("neigh"):
        r = cfg.interaction_radius()
        grid_box = world.domain.grid_box_for(store)
        grid = build_cell_grid(store, grid_box, r, cfg.half_neighbor)
        state.lists = build_neighbor_lists(store, grid, r, cfg.half_neighbor)
    state.steps_since_rebuild = 0


def _lists_outlived(state: SimState, world: RankWorld, cfg: SimConfig):
    """Whether any rank moved a particle half the Verlet buffer since the last rebuild.

    Every rank takes its own largest displacement and the ranks all-gather
    them, so all ranks give the same answer. Raises GuardViolation when the
    bound is reached on the first step after a rebuild: a particle moved half
    the buffer in one step, so dt is too large for the buffer.
    """
    with state.timers.track("other"):
        disp = max_displacement_since_rebuild(state.store, state.lists)
        state.max_displacement_seen = max(state.max_displacement_seen, disp)
    disps = yield from _timed(state.timers, "comm", gather_displacements(world, disp))
    bound = 0.5 * cfg.verlet_buffer
    if disps.max() < bound:
        return False
    if state.steps_since_rebuild == 0:
        who = int(np.argmax(disps))
        raise GuardViolation(
            f"rank {world.rank}, step {state.step}: a particle of rank {who} moved "
            f"{disps[who]:.4g} in the one step since the last rebuild, at least half the "
            f"Verlet buffer ({cfg.verlet_buffer}); lower dt ({cfg.dt}) or enlarge the buffer"
        )
    return True


def rank_program(
    cfg: SimConfig,
    world: RankWorld,
    store: ParticleStore,
    backend=None,
):
    """One rank's full simulation; yields barrier tokens, returns a RankReport.

    The harness must advance all ranks' programs in lockstep: plain `None`
    yields are communication barriers, ("step", k) marks the end of step k
    (k = 0 right after setup) where trajectory dumps are safe.

    `backend` is ignored. It stays only because the benchmark harness still
    passes `nanopair.backend.SerialBackend()`; it goes once the harness drops
    it (see nanopair.backend).
    """
    law = law_from_config(cfg)
    state = SimState(step=0, store=store)
    p0 = _momentum(store, cfg.mass)

    yield from _reneighbor(state, world, cfg)
    with state.timers.track("force"):
        compute_forces(store, state.lists, law)
    yield ("step", 0)

    for step in range(1, cfg.steps + 1):
        state.step = step
        with state.timers.track("other"):
            initial_integrate(store, cfg.dt, cfg.mass)
        if step % cfg.reneigh_interval == 0 or (yield from _lists_outlived(state, world, cfg)):
            yield from _reneighbor(state, world, cfg)
            state.rebuilds += 1
        else:
            yield from _timed(state.timers, "comm", synchronize(world, store, state.plan))
            state.steps_since_rebuild += 1
        with state.timers.track("force"):
            compute_forces(store, state.lists, law)
        with state.timers.track("other"):
            final_integrate(store, cfg.dt, cfg.mass)
        yield ("step", step)

    return RankReport(
        rank=world.rank,
        n_local=store.n_local,
        momentum_initial=p0,
        momentum_final=_momentum(store, cfg.mass),
        timers=state.timers,
        max_displacement_seen=state.max_displacement_seen,
        steps=cfg.steps,
        rebuilds=state.rebuilds,
    )
