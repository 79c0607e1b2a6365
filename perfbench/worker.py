"""One phase of a benchmark run, in its own process.

    python3 worker.py PHASE SPEC_JSON

``SPEC_JSON`` holds ``workload``, ``seed``, ``out``, ``seconds`` and
``overrides`` (config attributes). Phases:

- ``prepare``: train the bundle the workload reads, if it reads one.
- ``ready``: import, load the config and the bundle, then print ``ready``;
  the parent times this from process start.
- ``measure``: run the workload back to back for ``seconds`` (at least
  once) with tracing off and report medians, checks and peak memory.
- ``trace``: one untraced and one traced run; report the per-layer
  metrics and the tracing overhead.

Every phase except ``ready`` prints one JSON object as its last line.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from statistics import median
from time import perf_counter

import numpy as np

import layers
import workloads


# A fixed numpy kernel, independent of megsim, is timed before the first
# run and after every run. On a shared 2-core host the speed of the same
# code drifts by a fifth or more over tens of seconds; scaling each run by
# the kernel's time around it takes most of that drift out of wall_s.
# Wall times are reported at REFERENCE_S seconds per kernel run.
REFERENCE_S = 0.15


def reference_s():
    """Seconds for one run of the reference kernel."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 2048), dtype=np.float32)
    w = rng.standard_normal((256, 2048), dtype=np.float32)
    block = rng.standard_normal(16)
    start = perf_counter()
    for _ in range(200):                 # dense layers, as in training
        np.maximum(x @ w.T, 0.0) @ w
    for _ in range(5000):                # small per-block ops, as in links
        (0.5 * np.sqrt(2.0) * block + rng.normal(0.0, 0.1, size=16)) / 0.7
    return perf_counter() - start


def timed_run(workload, cfg, index, tracer=None):
    """Reset, run the command once (traced if ``tracer``), check outputs.

    Returns the run's config, result, host wall seconds and problems.
    """
    run_cfg = workloads.reset(workload, cfg, index)
    with tracer or nullcontext():
        start = perf_counter()
        result = workloads.command(workload, run_cfg)
        wall = perf_counter() - start
    problems = workloads.check(workload, run_cfg, result)
    return run_cfg, result, wall, problems


def scaled(walls, refs):
    """Each wall time at reference speed, from the kernel runs around it."""
    return [wall * 2 * REFERENCE_S / (before + after)
            for wall, before, after in zip(walls, refs, refs[1:])]


def measure(workload, cfg, seconds):
    walls, refs, failed, problems, quality = [], [reference_s()], 0, [], None
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        run_cfg, result, wall, found = timed_run(workload, cfg, len(walls))
        refs.append(reference_s())
        walls.append(wall)
        own = workloads.run_quality(workload, result)
        if quality is None:
            quality = own
        elif own != quality:
            found.append(f"quality {own} differs from the first run's "
                         f"{quality}")
        failed += bool(found)
        problems += found
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality.update(workloads.probe_quality(workload, run_cfg))
    values = {"wall_s": median(scaled(walls, refs)),
              "peak_rss_mb": peak_rss_mb, **quality}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in workloads.END_TO_END_UNITS.items()}
    return {"attempted": len(walls), "failed": failed, "problems": problems,
            "metrics": metrics, "walls": walls, "refs": refs}


def trace(workload, cfg):
    qualities, walls, refs, problems, failed = [], [], [reference_s()], [], 0
    tracer = layers.Tracer()
    for index, active in enumerate((None, tracer)):
        run_cfg, result, wall, found = timed_run(workload, cfg, index, active)
        refs.append(reference_s())
        qualities.append({**workloads.run_quality(workload, result),
                          **workloads.probe_quality(workload, run_cfg)})
        walls.append(wall)
        failed += bool(found)
        problems += found
    if qualities[0] != qualities[1]:
        problems.append(f"traced quality {qualities[1]} differs from "
                        f"untraced {qualities[0]}")
        failed += 1
    values = tracer.metrics()
    untraced, traced = scaled(walls, refs)
    values["trace.overhead_s"] = traced - untraced
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in layers.per_layer_metrics()}
    targets = {name: moves for name, _, moves in layers.per_layer_metrics()}
    return {"attempted": 2, "failed": failed, "problems": problems,
            "metrics": metrics, "walls": walls, "refs": refs,
            "targets": targets}


def _openblas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _openblas_threads(),
            "nproc": len(os.sched_getaffinity(0))}


def main(phase, spec):
    cfg = workloads.make_config(spec["workload"], spec["seed"], spec["out"],
                                spec.get("overrides"))
    workload = spec["workload"]
    if phase == "prepare":
        workloads.prepare(workload, cfg)
        print(json.dumps({"prepared": workloads.needs_bundle(workload)}))
    elif phase == "ready":
        workloads.ready(workload, cfg)
        print("ready", flush=True)
    elif phase == "measure":
        out = measure(workload, cfg, spec["seconds"])
        print(json.dumps({**out, "env": environment()}))
    elif phase == "trace":
        print(json.dumps({**trace(workload, cfg), "env": environment()}))
    else:
        raise SystemExit(f"unknown phase {phase!r}")


if __name__ == "__main__":
    main(sys.argv[1], json.loads(sys.argv[2]))
