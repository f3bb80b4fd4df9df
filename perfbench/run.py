"""nanopair benchmark: lockstep MD workloads, end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload lj-p1-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20      # every workload, one table

Run from the repository root. The program is imported from ``src/`` of the
checkout this file lives in, never from an installed copy. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see README.md). Before the last line the run prints one ``env`` and one
``info`` JSON line; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. A failed correctness gate
prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Setup is repeated and its median reported, so one slow repeat does not move setup_s.
SETUP_REPEATS = 5
# Yardstick samples taken before and after each setup repeat to scale it.
SETUP_REF_SAMPLES = 5


def _import_program():
    """Put this checkout's src/ first on the path; fail without it (nanopair has no __init__)."""
    if not (SRC / "nanopair" / "driver.py").is_file():
        sys.exit(f"perfbench: no nanopair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nanopair

    stray = [p for p in nanopair.__path__ if not Path(p).resolve().is_relative_to(SRC)]
    if stray:
        sys.exit(f"perfbench: nanopair also resolves outside {SRC}: {stray}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "NANOPAIR_THREADS": os.environ.get("NANOPAIR_THREADS"),
    }


class Tally:
    """Steps attempted and completed; a segment's steps complete only if it passes its gates."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0

    def segment(self, world, steps, observer=None):
        from harness import run_segment

        self.attempted += steps
        stats = run_segment(world, steps, observer)
        self.completed += steps
        return stats


# The warm-up runs two rebuild intervals and only the second sets the pace:
# lists built on the perfect lattice are narrower (102 against 156 slots on
# lj-p1-full), and steps before the first rebuild ran about twice as fast.
WARMUP_INTERVALS = 2


def _steps_for(seconds: float, warmup, interval: int) -> int:
    """Whole rebuild intervals that fill `seconds` at the pace of the warm-up's last interval."""
    per_interval = sum(warmup.step_wall[-interval:])
    return interval * max(1, round(seconds / per_interval))


def _run_gates(wl, seed, pos0, vel0, world, last) -> dict:
    import harness

    n = world.n_particles
    gates = {"momentum_drift": harness.check_momentum(wl.cfg.mass * vel0.sum(axis=0), harness.momentum(last), n)}
    if wl.cfg.potential_kind == "lj":
        e0 = harness.total_energy(wl.cfg, pos0, vel0)
        gates["energy_drift_per_particle"] = harness.check_energy(e0, harness.total_energy(wl.cfg, *world.gather()), n)
    gates["p1_max_deviation"] = harness.check_equivalence(wl, seed)
    return gates


def end_to_end(wl, seed: int, seconds: float, tally: Tally):
    import numpy as np

    import harness

    cfg = wl.cfg
    interval = cfg.reneigh_interval
    setups, raw_setups = [], []
    for i in range(SETUP_REPEATS):
        ref = [harness.reference_seconds() for _ in range(SETUP_REF_SAMPLES)]
        t0 = time.perf_counter()
        pos0, vel0 = harness.initial_state(cfg, seed)
        world = harness.build_world(cfg, wl.ranks, pos0, vel0)
        lock = harness.start_segment(world, WARMUP_INTERVALS * interval)
        wall = time.perf_counter() - t0
        ref += [harness.reference_seconds() for _ in range(SETUP_REF_SAMPLES)]
        raw_setups.append(wall)
        setups.append(wall * harness.speed_scale(ref))
        if i < SETUP_REPEATS - 1:
            lock.close()
    # the last setup runs on as warm-up and sets the measured step count
    warm = WARMUP_INTERVALS * interval
    tally.attempted += warm
    warmup = harness.finish_segment(world, lock, warm)
    tally.completed += warm
    steps = _steps_for(seconds, warmup, interval)
    stats = tally.segment(world, steps)
    # read before the gates: the energy gate rebuilds the whole system on one rank
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gates = _run_gates(wl, seed, pos0, vel0, world, stats)

    n = world.n_particles
    rebuild = np.arange(1, steps + 1) % interval == 0
    raw = np.asarray(stats.step_wall)
    scale = stats.scales()
    walls = raw * scale
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "atom_steps_per_s": (n * steps / walls.sum(), "1/s"),
        "step_ms_p50": (float(np.median(walls[~rebuild])) * 1e3, "ms"),
        "rebuild_step_ms_p50": (float(np.median(walls[rebuild])) * 1e3, "ms"),
        "parallel_atom_steps_per_s": (n * steps / float(np.dot(stats.step_slowest, scale)), "1/s"),
        "rank_imbalance": (float(stats.busy.max() / stats.busy.mean()), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "particles": n,
        "steps": steps,
        "samples": {"step": int((~rebuild).sum()), "rebuild_step": int(rebuild.sum()), "setup": SETUP_REPEATS},
        "step_ms_p90": float(np.percentile(walls[~rebuild], 90)) * 1e3,
        "speed_scale": float(np.median(scale)),
        "unscaled": {
            "setup_s": statistics.median(raw_setups),
            "atom_steps_per_s": n * steps / stats.loop_wall,
            "step_ms_p50": float(np.median(raw[~rebuild])) * 1e3,
            "rebuild_step_ms_p50": float(np.median(raw[rebuild])) * 1e3,
        },
        "gates": gates,
    }
    return metrics, info


def traced(wl, seed: int, seconds: float, tally: Tally):
    import harness
    from tracing import CountingTransport, Tracer, summarize

    from nanopair.potential import law_from_config

    cfg = wl.cfg
    interval = cfg.reneigh_interval
    tracer = Tracer(law_from_config(cfg))
    pos0, vel0 = harness.initial_state(cfg, seed)
    world = harness.build_world(cfg, wl.ranks, pos0, vel0, lambda size: CountingTransport(size, tracer))
    warmup = tally.segment(world, WARMUP_INTERVALS * interval)
    # equal untraced and traced halves: their per-step ratio is the tracing overhead
    steps = _steps_for(seconds / 2, warmup, interval)
    plain = tally.segment(world, steps)
    with tracer.install():
        stats = tally.segment(world, steps, observer=tracer)
    gates = _run_gates(wl, seed, pos0, vel0, world, stats)
    metrics = summarize(tracer, stats, plain)
    info = {"particles": world.n_particles, "steps": steps, "spans": len(tracer.spans), "gates": gates}
    return metrics, info


def run_one(args) -> int:
    import harness

    wl = harness.WORKLOADS[args.workload]
    wl.cfg.validate()
    tally = Tally()
    print(json.dumps({"env": environment()}), flush=True)
    try:
        if args.trace:
            metrics, info = traced(wl, args.seed, args.seconds, tally)
        else:
            metrics, info = end_to_end(wl, args.seed, args.seconds, tally)
    except Exception as exc:  # any fault of the program under test fails the run, with its reason
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": max(tally.attempted - tally.completed, 1), "metrics": {}}))
        return 1
    print(json.dumps({"info": {"workload": wl.name, "seed": args.seed, **info}}))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.completed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    import harness

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:42s} {m['value']:>16.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the initial velocities")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured step loop (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)
    _import_program()
    import harness

    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)} or all")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
