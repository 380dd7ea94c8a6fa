#!/usr/bin/env python3
"""dpsmap benchmark runner (stdlib only).

    python3 bench/run.py --workload map-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload export-io --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --compare base.jsonl [new.jsonl]

A run is a closed loop with one client: it starts one fresh child process
per pass, waits for it, and starts the next until ``--seconds`` have
passed (at least three passes).  Each child imports ``dpsmap`` from
``src/``, runs the workload's command list through ``dpsmap.cli.main`` and
checks every output.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; ``--out FILE`` also appends the full
result (environment, samples, errors) to FILE as one JSON line, which
``--compare`` reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# a run must end within 180 s: start no pass that could end after this
HARD_LIMIT_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_ms.p50": "ms",
             "peak_rss_mb": "MB", "ok_frac": "frac"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed command)."""


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "python": platform.python_version(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **{var: _child_env().get(var, "unset") for var in BLAS_VARS}}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPSMAP_THREADS", None)      # the CLI's worker-count override
    # one BLAS thread: on a shared 2-vCPU host a second, spinning BLAS
    # thread measures the neighbours more than the program
    env.update({var: "1" for var in BLAS_VARS})
    return env


def _wait(proc, deadline):
    """Reap the child with its rusage; kill it once ``deadline`` passes."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError("a pass ran past the run's time limit")
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_pass(plan: dict, workdir: str, traced: bool, deadline: float) -> dict:
    """One fresh child in its own empty working directory."""
    os.makedirs(workdir)
    for name, text in plan["inputs"].items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump({"commands": plan["commands"], "trace": traced}, fh)
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, plan_path], cwd=workdir,
                                env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        code, usage = _wait(proc, deadline)
    if code != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"child exited with code {code}:\n{tail}")
    with open(os.path.join(workdir, "result.json")) as fh:
        record = json.load(fh)
    result = {"traced": traced,
              "setup_s": record["setup_end"] - start,
              "wall_s": record["wall_s"],
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cmd_ms": [c["ms"] for c in record["commands"]],
              "errors": [(i, c["error"]) for i, c in enumerate(record["commands"])
                         if c["error"]],
              "env": record["env"]}
    if traced:
        with open(os.path.join(workdir, "spans.json")) as fh:
            result["layers"] = tracing.reduce_spans(json.load(fh))
    return result


def run_passes(plan: dict, seconds: float, trace: bool) -> list:
    """Closed loop: passes back to back until ``seconds`` have passed."""
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    os.makedirs(WORK, exist_ok=True)
    workroot = os.path.join(WORK, f"{plan['workload']}-{os.getpid()}")
    passes = []
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            workdir = os.path.join(workroot, f"pass{len(passes):03d}")
            t0 = time.monotonic()
            passes.append(run_pass(plan, workdir, traced,
                                   start + HARD_LIMIT_S + 20.0))
            shutil.rmtree(workdir)
            now = time.monotonic()
            if now - start >= seconds and len(passes) >= min_passes:
                break
            if now - start + 2 * (now - t0) > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass                           # another run still uses it
    return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def _fastest(passes: list) -> list:
    """Each command's fastest latency (ms) over the passes.

    The shared host runs for seconds at a time up to 1.5 times slower, so
    a command's median depends on when the run happened; its fastest pass
    is its cost when the host is quiet, and it moves with the program.
    """
    return [min(ms) for ms in zip(*(p["cmd_ms"] for p in passes))]


def summarize(plan: dict, passes: list, trace: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["cmd_ms"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    per_command = _fastest(untraced)
    e2e = {"setup_s": _median([p["setup_s"] for p in passes]),
           "wall_s": sum(per_command) / 1e3,
           "cmd_ms.p50": _median(per_command),
           "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
           "ok_frac": (attempted - failed) / attempted}
    samples = {"passes": len(untraced),
               "commands": sum(len(p["cmd_ms"]) for p in untraced),
               "pass_wall_s": [p["wall_s"] for p in untraced],
               "pass_setup_s": [p["setup_s"] for p in passes],
               "pass_cmd_ms": [p["cmd_ms"] for p in untraced]}
    if trace:
        traced = [p for p in passes if p["traced"]]
        units = tracing.per_layer_units()
        layers = {name: _median([p["layers"].get(name, 0) for p in traced])
                  for name in units}
        layers["trace.wall_s"] = sum(_fastest(traced)) / 1e3
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
        samples["traced_passes"] = len(traced)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    errors = [f"pass {k} command {i} ({' '.join(plan['commands'][i]['argv'][:3])}):"
              f" {err}" for k, p in enumerate(passes) for i, err in p["errors"]]
    return {"workload": plan["workload"], "seed": plan["seed"], "trace": trace,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "end_to_end": e2e, "samples": samples,
            "env": {**environment(), **passes[0]["env"]}, "errors": errors[:20]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    plan = workloads.build(name, seed, small)
    return summarize(plan, run_passes(plan, seconds, trace), trace)


def report(summary: dict):
    env, s, e2e = summary["env"], summary["samples"], summary["end_to_end"]
    print(f"# dpsmap benchmark: workload {summary['workload']}, seed "
          f"{summary['seed']}, trace {int(summary['trace'])}; closed loop, one "
          f"client, one fresh process per pass")
    print(f"# commit {env['commit']}; python {env['python']}, numpy "
          f"{env['numpy']}, BLAS {env['blas']} with {env['blas_threads']} "
          f"threads; nproc {env['nproc']} (affinity {env['affinity']}); "
          + ", ".join(f"{v}={env[v]}" for v in BLAS_VARS))
    print(f"# setup_s     {e2e['setup_s']:.4f} s   median of "
          f"{s['passes'] + s.get('traced_passes', 0)} passes")
    print(f"# wall_s      {e2e['wall_s']:.4f} s   sum over commands of each "
          f"command's fastest of {s['passes']} untraced passes (median pass "
          f"{_median(s['pass_wall_s']):.4f} s)")
    print(f"# cmd_ms.p50  {e2e['cmd_ms.p50']:.3f} ms  median over commands of"
          f" each command's fastest; {s['commands']} latencies")
    print(f"# peak_rss_mb {e2e['peak_rss_mb']:.1f} MB   median of "
          f"{s['passes']} untraced passes")
    print(f"# ok_frac     {e2e['ok_frac']:.4f}      failed_frac "
          f"{summary['failed']}/{summary['attempted']}")
    if summary["trace"]:
        m = summary["metrics"]
        print(f"# traced wall_s {m['trace.wall_s']['value']:.4f} s over "
              f"{s['traced_passes']} passes; tracing overhead "
              f"{m['trace.overhead_s']['value']:.4f} s per pass, "
              f"{m['trace.spans']['value']} spans per pass")
    for err in summary["errors"]:
        print(f"# FAILED {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result to this JSONL file")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS.jsonl",
                        help="summarize one result file, or compare two")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two result files")
        return compare.main(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "dpsmap", "cli.py")):
        print(f"error: no dpsmap sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        summary = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
    report(summary)
    print(json.dumps({key: summary[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
