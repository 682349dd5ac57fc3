"""dyckrnn benchmark: one workload per process, through `dyckrnn.cli.main`.

    python3 perfbench/run.py --workload corpus-checks --seed 2026 --seconds 30 --trace 0

Run from the root of a source checkout.  The load is a closed loop: one
client issues the workload's commands one after another, in this process,
and repeats the pass while the next one should end within --seconds (at
least one pass).  Every output is checked (see workloads.py).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the machine, the
per-workload metrics and the per-command times.  With --trace 1 the process
runs one untraced pass, then one pass under the tracer, and reports the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

# Cap BLAS threads before numpy is first imported, here and in the probes.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

from workloads import WORKLOADS, Command, Outcome  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance suite's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only set up, then exit (times setup_s)")
    return parser.parse_args(argv)


def setup(workload, seed: int):
    """Import the CLI from this checkout and lay out the pass's inputs."""
    sys.path.insert(0, SRC)
    import dyckrnn.cli

    where = os.path.dirname(os.path.abspath(dyckrnn.cli.__file__))
    if where != os.path.join(SRC, "dyckrnn"):
        raise RuntimeError(f"imported dyckrnn from {where}, not from {SRC}")
    work = os.path.join(BENCH_DIR, "work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    return dyckrnn.cli.main, work, workload.make(seed, work)


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that do exactly what `setup` does."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    return times


def run_pass(main, commands: list[Command], work: str, tracer=None):
    """One closed-loop pass.  Returns (seconds per command, outcomes)."""
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    seconds, outcomes = [], []
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.current_command = index
        out, err = io.StringIO(), io.StringIO()
        rc, why = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(command.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation
                why = f"raised {exc!r}"
            seconds.append(time.perf_counter() - t0)
        reports = []
        if rc == 0:
            try:
                reports = command.check(command, out.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rc, why = None, f"output check raised {exc!r}"
        elif not why:
            why = f"exited {rc}: {err.getvalue().strip()[:200]}"
        outcomes.append(Outcome(command.label, rc == 0, why))
        outcomes += [Outcome(f"{command.label}:{r.label}", r.ok, r.why)
                     for r in reports]
    return seconds, outcomes


def machine_record(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dyckrnn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": workload.name, "seed": args.seed,
            "seed_default": workload.default_seed}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, commands, setup_times, outcomes) -> tuple[dict, dict]:
    """The contract metrics, and the record of the run with per-command times."""
    verdicts = [sum(seconds) for seconds, _ in passes]
    checked = sum(c.checked + c.tokens for c in commands)
    failed_ratio = sum(not o.ok for o in outcomes) / len(outcomes)
    setup_s = _metric(statistics.median(setup_times), "s")
    peak_rss_mb = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics = {
        "setup_s": setup_s,
        "checked_per_s": _metric(
            statistics.median(checked / v for v in verdicts), "1/s"),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": _metric(1.0 - failed_ratio, "ratio"),
    }
    per_command = {c.label: statistics.median(s[i] for s, _ in passes)
                   for i, c in enumerate(commands)}
    # The per-workload metrics: each applies to some workloads only.
    workload_metrics = {"setup_s": setup_s}
    verify = [i for i, c in enumerate(commands) if c.argv[0] == "verify"]
    if verify:
        workload_metrics["verdict_s"] = _metric(statistics.median(
            sum(s[i] for i in verify) for s, _ in passes), "s")
    for c in commands:
        if c.label in ("sample", "metric"):
            workload_metrics[f"{c.label}_tokens_per_s"] = _metric(
                c.tokens / per_command[c.label], "tokens/s")
    workload_metrics["peak_rss_mb"] = peak_rss_mb
    workload_metrics["failed_ratio"] = _metric(failed_ratio, "ratio")
    detail = {"workload_metrics": workload_metrics, "passes": len(passes),
              "pass_s": verdicts, "command_s": per_command,
              "setup_s_all": setup_times}
    return metrics, detail


def per_layer(main, commands, work, untraced_s: float,
              trace_name: str) -> tuple[dict, list]:
    import numpy as np

    from tracer import Tracer, per_layer_names

    tracer = Tracer()
    tracer.install()
    try:
        seconds, outcomes = run_pass(main, commands, work, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["weightio.file_bytes"] = sum(
        os.path.getsize(c.argv[c.argv.index("-o") + 1])
        for c in commands if c.argv[0] == "build")
    values["trace_overhead"] = sum(seconds) / untraced_s - 1.0
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    np.savez_compressed(os.path.join(out_dir, trace_name), **tracer.arrays())
    return {name: _metric(values[name], unit)
            for name, unit in per_layer_names()}, outcomes


def declared_names(trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if the file is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        doc = json.load(handle)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dyckrnn", "cli.py")):
        print(f"error: no dyckrnn sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    if args.probe:
        _, work, _ = setup(workload, args.seed)
        shutil.rmtree(work)
        return 0

    setup_times = time_setup(args) if not args.trace else []
    cli_main, work, commands = setup(workload, args.seed)
    try:
        started = time.perf_counter()
        passes = [run_pass(cli_main, commands, work)]
        if args.trace:
            metrics, traced = per_layer(
                cli_main, commands, work, sum(passes[0][0]),
                f"trace-{workload.name}-seed{args.seed}.npz")
            outcomes = passes[0][1] + traced
            detail = {"untraced_s": sum(passes[0][0])}
        else:
            # Start another pass only if it should end inside --seconds, so
            # that a run lasts about --seconds whatever the pass time.
            while (time.perf_counter() - started + sum(passes[-1][0])
                   <= args.seconds):
                passes.append(run_pass(cli_main, commands, work))
            outcomes = [o for _, pass_outcomes in passes for o in pass_outcomes]
            metrics, detail = end_to_end(passes, commands, setup_times,
                                         outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f"{o.label}: {o.why}" for o in outcomes if not o.ok]

    declared = declared_names(args.trace)
    if declared is not None and declared != list(metrics):
        print(f"error: metrics {list(metrics)} differ from BENCHMARK.json's "
              f"{declared}", file=sys.stderr)
        return 1
    detail["machine"] = machine_record(args, workload)
    detail["failures"] = failures[:20]
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
