"""megsim benchmark.

    python3 perfbench/run.py --workload {train,sweep,power} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a megsim checkout; the sources are read from the
``src/`` directory next to this one and scratch files go under
``.bench_build/perfbench/`` and are removed at exit. Each phase runs in its
own process (see ``worker.py``), so imports, the bundle training and the
peak memory of one phase never leak into another:

1. ``prepare``: train the bundle the workload reads (untimed).
2. ``setup_s``: the median over ``SETUP_REPEATS`` fresh processes of the
   time from process start to ready: imports, ``config.load_config`` and,
   for sweep and power, ``experiments.load_bundle``.
3. With ``--trace 0``: run the workload back to back for ``--seconds``
   (at least once) and report every end-to-end metric. ``wall_s`` is the
   median over runs of each run's wall time scaled by a reference kernel
   timed around it (see ``worker.REFERENCE_S``); the host wall times and
   kernel times are kept in the environment line. With ``--trace 1``: one
   untraced and one traced run, reporting every per-layer metric and the
   tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. The exit code is 0 only when the benchmark ran.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from select import select
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("train", "sweep", "power")
SETUP_REPEATS = 5
# every child is stopped in time for the whole run to end within 180 s
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def child_env():
    """Environment for workers: the checkout's sources, no megsim overrides,
    and BLAS limited to the cores this process may use."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEGSIM_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    nproc = len(os.sched_getaffinity(0))
    requested = int(env.get("OPENBLAS_NUM_THREADS") or nproc)
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(requested, nproc)))
    return env


class Runner:
    """Starts one worker at a time and waits for each before the next."""

    def __init__(self, spec, deadline):
        self.spec = spec
        self.deadline = deadline
        self.env = child_env()

    def _args(self, phase):
        return [sys.executable, WORKER, phase, json.dumps(self.spec)]

    def _timeout(self):
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchmarkError("out of time")
        return left

    def call(self, phase):
        """Run a phase to completion; returns its JSON result."""
        try:
            done = subprocess.run(self._args(phase), env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=self._timeout(), check=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{phase} did not finish in time") from exc
        except subprocess.CalledProcessError as exc:
            raise BenchmarkError(
                f"{phase} exited with code {exc.returncode}") from exc
        return json.loads(done.stdout.strip().splitlines()[-1])

    def time_ready(self):
        """Seconds from starting a worker to its ``ready`` line."""
        start = perf_counter()
        with subprocess.Popen(self._args("ready"), env=self.env,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                if not select([proc.stdout], [], [], self._timeout())[0]:
                    raise BenchmarkError("ready did not answer in time")
                line = proc.stdout.readline().strip()
                elapsed = perf_counter() - start
                proc.stdout.read()
                code = proc.wait(self._timeout())
            except BaseException:
                proc.kill()
                raise
        if line != "ready" or code != 0:
            raise BenchmarkError(f"ready failed (exit code {code})")
        return elapsed


def git_rev():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, traced, overrides=None):
    """Run the benchmark.

    Returns the result line, the environment record and, for a traced run,
    the end-to-end metric each per-layer metric should move.
    """
    deadline = perf_counter() + DEADLINE_S
    work = os.path.join(ROOT, ".bench_build", "perfbench",
                        f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    spec = {"workload": workload, "seed": seed, "out": work,
            "seconds": seconds, "overrides": overrides or {}}
    runner = Runner(spec, deadline)
    try:
        runner.call("prepare")
        if traced:
            out = runner.call("trace")
        else:
            setup = median(runner.time_ready() for _ in range(SETUP_REPEATS))
            out = runner.call("measure")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out["metrics"]}
    if not traced:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    env = {"git_rev": git_rev(), "workload": workload, "seed": seed,
           "trace": int(traced), "host_walls_s": out["walls"],
           "reference_s": out["refs"], **out["env"]}
    return result, env, out.get("targets", {})


def main(argv=None, overrides=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "megsim", "__init__.py")):
        print(f"no megsim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        result, env, targets = run(args.workload, args.seed, args.seconds,
                          bool(args.trace), overrides)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, target in targets.items():
        metric = result["metrics"][name]
        print(f"{name:<52} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"moves {target}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
