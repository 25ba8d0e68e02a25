"""Benchmark of the `transversal` command line, driven in-process.

    python3 benchmarks/run.py --workload construct-certify --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and called through ``transversal.cli.main(argv)``, one command at a
time (a closed loop with a single client).  Set-up (importing the
program, writing the seeded family files, warm-up commands) runs
SETUP_REPEATS times and its median is reported.  A run then makes
round(seconds / cycle_s) whole cycles of the workload (at least
min_cycles), where cycle_s is the cycle's duration on the reference
machine, so every commit measures the same commands.  Every command's
output is checked; a command that fails any check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics (metrics.END_TO_END).
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics (spans.PER_LAYER) per traced cycle, plus the tracing
overhead.  Details, the environment block and (traced) every span are
written under ``.bench_run/``; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from metrics import END_TO_END, by_label, end_to_end, named
from spans import LAYERS, PER_LAYER, Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"
SETUP_REPEATS = 3
#: No new cycle starts after this many seconds of the process, so that a
#: slow machine still ends the run well within its time limit.
CYCLE_DEADLINE_S = 70.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_program() -> dict:
    """Import the program's layer modules afresh from ``src/``."""
    for name in [m for m in sys.modules
                 if m == "transversal" or m.startswith("transversal.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("transversal.cli")
    if Path(cli.__file__).resolve().parent != SRC / "transversal":
        raise ImportError(f"imported transversal from {cli.__file__}, not {SRC}")
    return {layer: sys.modules[f"transversal.{layer}"] for layer in LAYERS}


def run_command(modules: dict, cmd) -> tuple[Outcome, bytes]:
    """Call cli.main on the command's argv; return the outcome and output bytes."""
    if cmd.output is not None and cmd.output.exists():
        cmd.output.unlink()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = modules["cli"].main(list(cmd.argv))
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed command, never a lost one
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    outcome = Outcome(rc, out.getvalue(), err.getvalue(), seconds, error)
    if cmd.output is not None:
        data = cmd.output.read_bytes() if cmd.output.exists() else b""
    else:
        data = outcome.stdout.encode()
    return outcome, data


class Runner:
    """Runs commands, checks their outputs and counts the failures."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, modules: dict, cmd, where: str):
        outcome, data = run_command(modules, cmd)
        problems = self.workload.check(cmd, outcome, data)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(cmd.argv, digest)
        if first != digest and outcome.rc == 0:
            problems.append("output bytes differ from an earlier run of the same "
                            "input and seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{where} {cmd.label}: {p}" for p in problems)
        return cmd, outcome, not problems


def family_digest(workload) -> str:
    h = hashlib.sha256()
    for key in sorted(workload.families):
        h.update(workload.families[key][0].read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS
                             if v in os.environ},
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def set_up(cls, seed: int, run_dir: Path, runner: Runner):
    """One timed set-up: import the program, write the families, warm up."""
    start = perf_counter()
    modules = import_program()
    workload = cls(seed, run_dir)
    workload.prepare()
    runner.workload = workload
    for cmd in workload.warmup():
        runner.run(modules, cmd, "warm-up")
    return modules, workload, perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "transversal" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    process_start = perf_counter()

    cls = WORKLOADS[args.workload]
    run_dir = RUN_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    runner = Runner(None)
    setups, digests = [], set()
    for _ in range(SETUP_REPEATS):
        modules, workload, seconds = set_up(cls, args.seed, run_dir, runner)
        setups.append(seconds)
        digests.add(family_digest(workload))
    if len(digests) != 1:
        runner.problems.append("set-up: the same seed wrote different family files")
        runner.failed += 1

    cycles = max(cls.min_cycles, round(args.seconds / cls.cycle_s))
    tracer = Tracer() if args.trace else None
    records, walls = [], {False: [], True: []}
    commands: list[str] = []
    for c in range(cycles):
        if perf_counter() - process_start > CYCLE_DEADLINE_S:
            break
        traced = tracer is not None and c % 2 == 1
        if traced:
            tracer.install(modules)
        wall = 0.0
        try:
            for cmd in workload.cycle():
                if traced:
                    tracer.command(len(commands), cmd.shape)
                commands.append(" ".join(cmd.argv))
                record = runner.run(modules, cmd, f"cycle {c}")
                wall += record[1].seconds
                if not traced:
                    records.append(record)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(records, setups, peak_mb)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        overhead = 0.0
        if walls[True] and walls[False]:
            overhead = (sum(walls[True]) / len(walls[True])) / (
                sum(walls[False]) / len(walls[False])) - 1.0
        metrics = tracer.metrics(len(walls[True]), overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(run_dir / "spans.csv", commands)

    details = {
        "workload": args.workload,
        "why": cls.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles_planned": cycles,
        "cycles": len(walls[False]) + len(walls[True]),
        "setup_s": setups,
        "cycle_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "figures": named(records, cls.work_unit, runner.attempted, runner.failed),
        "commands": by_label(records),
        "problems": runner.problems,
        "metrics": metrics,
        "environment": environment(args.seed),
    }
    for path in run_dir.glob("*.json"):  # the inputs and complements
        path.unlink()
    (run_dir / "result.json").write_text(json.dumps(details, indent=2) + "\n")

    report(details, units)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(details: dict, units: dict) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    env = details["environment"]
    print(f"workload {details['workload']} seed {env['seed']} "
          f"trace {details['trace']} cycles {details['cycles']}", file=err)
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"threads={env['blas_thread_vars'] or 'default'} "
          f"commit={env['git_commit']}", file=err)
    for name, value in details["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {units[name]}", file=err)
    if details["trace"] == 0:
        print("figures (not gated):", file=err)
        for name, value in details["figures"].items():
            unit = ("1/s" if name.endswith("_per_s") else "s" if name.endswith("_s")
                    else "%" if name.endswith("percentile") else "")
            shown = "n/a (< 11 samples)" if value is None else f"{value:14.6g}"
            print(f"  {name:44s} {shown:>14s} {unit if value is not None else ''}",
                  file=err)
    print(f"attempted {details['attempted']} failed {details['failed']}", file=err)
    for problem in details["problems"]:
        print(f"  problem: {problem}", file=err)


if __name__ == "__main__":
    sys.exit(main())
