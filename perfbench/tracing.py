"""Traced run: spans and counters recorded around the calls into each layer.

Nothing here edits nanopair. `Tracer.install` rebinds, for the duration of a
`with` block, the names that `nanopair.driver` resolves at call time (the
three comm generators, the neighbor and potential entry points, the two
integrators), the editing methods of `ParticleStore` and the bulk row methods
of `ArrayHandle`. Comm generators get one span per resume, so a span covers
only the time that rank runs, never the slices of other ranks in between.

A span is (name, rank, step, start, end, parent, rows). Spans stay in memory
until the run ends; `summarize` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from nanopair import driver
from nanopair.comm import WIRE_BORDER, WIRE_EXCHANGE, WIRE_SYNC, MailboxTransport
from nanopair.layout import ArrayHandle
from nanopair.particles import ParticleStore

_WIRE_NAMES = {WIRE_EXCHANGE: "exchange", WIRE_BORDER: "border", WIRE_SYNC: "sync"}

# (driver attribute, span name, is a generator)
_DRIVER_NAMES = (
    ("exchange", "comm.exchange", True),
    ("define_borders", "comm.define_borders", True),
    ("synchronize", "comm.synchronize", True),
    ("build_cell_grid", "neighbor.build_cell_grid", False),
    ("build_neighbor_lists", "neighbor.build_lists", False),
    ("max_displacement_since_rebuild", "neighbor.displacement", False),
    ("compute_forces", "potential.compute_forces", False),
    ("initial_integrate", "driver.integrate", False),
    ("final_integrate", "driver.integrate", False),
)


def _rows_of(a) -> int:
    return int(np.atleast_2d(a).shape[0])


# Row count of each wrapped method, from its own arguments.
_STORE_METHODS = {
    "append_locals": lambda self, pos, vel: _rows_of(pos),
    "compact_locals": lambda self, keep: int(np.size(keep)),
    "append_ghosts": lambda self, pos, peer: _rows_of(pos),
    "set_ghost_positions": lambda self, start, pos: _rows_of(pos),
}
_HANDLE_METHODS = {
    "read_rows": lambda self, start=0, count=None: self.size_x - start if count is None else count,
    "write_rows": lambda self, start, rows: _rows_of(rows),
    "fill_rows": lambda self, start, count, value=0.0: max(count, 0),
    "read_rows_at": lambda self, x_indices: int(np.size(x_indices)),
    "write_rows_at": lambda self, x_indices, rows: int(np.size(x_indices)),
}


class CountingTransport(MailboxTransport):
    """Mailbox that counts messages and bytes per wire kind while a tracer records."""

    def __init__(self, size: int, tracer: "Tracer"):
        super().__init__(size)
        self.tracer = tracer

    def send(self, src: int, dst: int, blob: bytes) -> None:
        t = self.tracer
        if t.recording and t.step >= 1:
            kind = _WIRE_NAMES.get(blob[0], str(blob[0]))
            t.counts[f"msgs.{kind}"] += 1
            t.counts[f"bytes.{kind}"] += len(blob)
        super().send(src, dst, blob)


class Tracer:
    """In-memory span recorder; `rank` and `step` are set by the lockstep harness."""

    def __init__(self, law):
        self.law = law
        self.rank = 0
        self.step = 0
        self.recording = False
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start, rows=0) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, self.rank, self.step, start, end, parent, rows))

    def _call(self, name, fn, rows=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid, parent, start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start, rows(*args, **kwargs) if rows else 0)
            if after is not None:
                self._paused(after, args, out)
            return out

        return wrapper

    def _gen(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = self.recording
                if rec:
                    sid, parent, start = self._open()
                try:
                    item = next(gen)
                except StopIteration as stop:
                    result, done = stop.value, True
                else:
                    done = False
                finally:
                    if rec:
                        self._close(name, sid, parent, start)
                if done:
                    if after is not None and rec:
                        self._paused(after, args, result)
                    return result
                yield item

        return wrapper

    def _paused(self, fn, args, out) -> None:
        """Run a counter hook with recording off, so its own reads are not traced.

        Like the spans summarized, counters skip the segment's setup (step 0).
        """
        if self.step < 1:
            return
        self.recording = False
        try:
            fn(args, out)
        finally:
            self.recording = True

    # -- counters taken at layer boundaries ----------------------------------

    def _after_forces(self, args, out) -> None:
        self.counts["force_entries"] += int(args[1].counts.sum())

    def _after_grid(self, args, grid) -> None:
        occupied = grid.counts[grid.counts > 0]
        if occupied.size:
            self.counts["occupancy_ratio_sum"] += grid.occupants.shape[1] / occupied.mean()
            self.counts["grids"] += 1

    def _after_lists(self, args, lists) -> None:
        store = args[0]
        pairs = lists.pairs()
        pos = store.all_positions()
        delta = pos[pairs[:, 0]] - pos[pairs[:, 1]]
        rsq = np.einsum("ij,ij->i", delta, delta)
        self.counts["entries"] += pairs.shape[0]
        self.counts["useful"] += int(np.count_nonzero(rsq < self.law.cutoff_rsq))
        self.counts["slots"] += lists.n_local * lists.indices.size_y
        self.counts["list_builds"] += 1

    def _after_borders(self, args, plan) -> None:
        store = args[1]
        self.counts["ghosts"] += store.n_ghost
        self.counts["ghost_locals"] += store.n_local

    # -- installation -------------------------------------------------------

    @contextmanager
    def install(self):
        """Wrap every traced name for the duration of the block, then restore it."""
        after = {
            "compute_forces": self._after_forces,
            "build_cell_grid": self._after_grid,
            "build_neighbor_lists": self._after_lists,
            "define_borders": self._after_borders,
        }
        saved = []

        def rebind(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for attr, name, is_gen in _DRIVER_NAMES:
            fn = getattr(driver, attr)
            hook = after.get(attr)
            rebind(driver, attr, self._gen(name, fn, hook) if is_gen else self._call(name, fn, after=hook))
        for attr, rows in _STORE_METHODS.items():
            rebind(ParticleStore, attr, self._call(f"particles.{attr}", getattr(ParticleStore, attr), rows))
        for attr, rows in _HANDLE_METHODS.items():
            rebind(ArrayHandle, attr, self._handle_call(f"layout.{attr}", getattr(ArrayHandle, attr), rows))
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def _handle_call(self, name, fn, rows):
        """Only particle arrays (three columns) count as layout rows; the
        neighbor-list handle is read inside the force kernel's own span."""
        traced = self._call(name, fn, rows)

        @functools.wraps(fn)
        def wrapper(handle, *args, **kwargs):
            if handle.size_y != 3:
                return fn(handle, *args, **kwargs)
            return traced(handle, *args, **kwargs)

        return wrapper


def _ms(seconds: float) -> float:
    return seconds * 1e3


def summarize(tracer: Tracer, traced, untraced):
    """Per-layer metrics from the spans of the traced segment's steps (setup excluded).

    `traced` and `untraced` are the `StepStats` of two equally long segments;
    the overhead ratio compares their speed-scaled wall time per step. Layer
    times are raw wall time.

    A `_ms` metric is the time, summed over ranks, the layer took per step in
    which it ran: every step for the force kernel, only rebuild steps for the
    list build. Row counts use the same base.
    """
    steps, busy, wait = traced.steps, traced.busy, traced.wait
    spans = [s for s in tracer.spans if s[3] >= 1]
    child = defaultdict(float)
    for sid, name, rank, step, start, end, parent, rows in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    rows = defaultdict(int)
    steps_seen = defaultdict(set)
    for sid, name, rank, step, start, end, parent, nrows in spans:
        total[name] += end - start
        self_time[name] += end - start - child[sid]
        rows[name] += nrows
        steps_seen[name].add(step)

    def per_step(name):
        n = len(steps_seen[name])
        return total[name] / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    builds = c["list_builds"]
    m = {}
    m["potential.compute_forces_ms"] = (_ms(per_step("potential.compute_forces")), "ms")
    m["potential.ns_per_entry"] = (ratio(total["potential.compute_forces"] * 1e9, c["force_entries"]), "ns")
    m["potential.useful_ratio"] = (ratio(c["useful"], c["entries"]), "ratio")
    m["neighbor.build_cell_grid_ms"] = (_ms(per_step("neighbor.build_cell_grid")), "ms")
    m["neighbor.build_lists_ms"] = (_ms(per_step("neighbor.build_lists")), "ms")
    m["neighbor.entries"] = (ratio(c["entries"], builds) * len(busy), "count")
    m["neighbor.slots"] = (ratio(c["slots"], builds) * len(busy), "count")
    m["neighbor.fill_ratio"] = (ratio(c["entries"], c["slots"]), "ratio")
    m["neighbor.occupancy_max_over_mean"] = (ratio(c["occupancy_ratio_sum"], c["grids"]), "ratio")
    m["neighbor.displacement_ms"] = (_ms(per_step("neighbor.displacement")), "ms")
    for phase in ("exchange", "define_borders", "synchronize"):
        m[f"comm.{phase}_ms"] = (_ms(per_step(f"comm.{phase}")), "ms")
    for kind in ("exchange", "border", "sync"):
        m[f"comm.msgs_per_step.{kind}"] = (c[f"msgs.{kind}"] / steps, "count")
        m[f"comm.bytes_per_step.{kind}"] = (c[f"bytes.{kind}"] / steps, "B")
    m["comm.ghosts_per_local"] = (ratio(c["ghosts"], c["ghost_locals"]), "ratio")
    for method in _STORE_METHODS:
        name = f"particles.{method}"
        m[f"{name}_ms"] = (_ms(per_step(name)), "ms")
        m[f"{name}_rows"] = (ratio(rows[name], len(steps_seen[name])), "count")
    for method in _HANDLE_METHODS:
        name = f"layout.{method}"
        m[f"{name}_ns_per_row"] = (ratio(self_time[name] * 1e9, rows[name]), "ns/row")
    m["driver.integrate_ms"] = (_ms(per_step("driver.integrate")), "ms")
    for stat in ("min", "mean", "max"):
        m[f"driver.rank_busy_ms.{stat}"] = (_ms(getattr(np, stat)(busy) / steps), "ms")
    m["driver.wait_ms"] = (_ms(float(np.mean(wait)) / steps), "ms")
    scaled = [float(np.dot(st.step_wall, st.scales())) / st.steps for st in (traced, untraced)]
    m["trace.overhead_ratio"] = (ratio(*scaled), "ratio")
    return m
