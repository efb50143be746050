#!/usr/bin/env python3
"""The xepecs benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload angle_sweep --seed 1 --seconds 36 --trace 0

``--trace 0`` runs jobs one at a time for ``--seconds`` and reports the
end-to-end metrics, in time adjusted to the host's speed during each job (see
speed.py). ``--trace 1`` reports the per-layer metrics: it runs the
workload's fixed trace job set untraced for ``--seconds``, then once with
every traced function wrapped. The last line of stdout is the JSON result;
the lines before it are a readable report and the run context, which are
also written to ``.bench_build/perfbench/``. See README.md in this directory.
"""

import time

_T0 = time.perf_counter()   # set-up time is counted from here

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2      # fresh-process set-ups besides the run's own; setup_s is the median
IMPORT_PROBES = 5     # fresh interpreters per import-time measurement
TAIL_BEYOND = 10      # samples the tail percentile must leave above it
WORKLOADS = ("angle_sweep", "param_scan", "cli_runs")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_job(wl, i: int, runner, clock=time.perf_counter):
    """Run and check job i; returns (ms of the run by ``clock``, Outcome).

    A job that raises, or whose check raises, is a failed job: it is
    reported, never dropped.
    """
    from workloads import Outcome

    x = wl.inputs(i)
    t = clock()
    try:
        result = runner(x)
    except Exception as exc:   # the loop must go on; the failure is counted
        ms = (clock() - t) * 1e3
        print(f"# job {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return ms, Outcome(0, [f"raised.{type(exc).__name__}"])
    ms = (clock() - t) * 1e3
    try:
        outcome = wl.check(x, result)
    except Exception as exc:
        print(f"# check of job {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        outcome = Outcome(0, [f"check_raised.{type(exc).__name__}"])
    return ms, outcome


def timed_phase(wl, seconds: float, runner, cycle: int | None = None, min_jobs: int = 1,
                sample_during_jobs: bool = False):
    """Closed loop, one client: run jobs back to back for ``seconds``.

    With ``cycle``, job indices repeat 0 .. cycle - 1. Returns the
    (ms, Outcome) records, each job's reference time (the mean of the speed
    samples from the one just before it to the one just after it), and the
    phase's wall seconds. Job times leave out the samples taken during them.
    """
    import speed

    records, refs = [], []
    t0 = time.perf_counter()
    with speed.SpeedProbe(sample_during_jobs) as probe:
        probe.sample()
        j = 0
        while j < min_jobs or time.perf_counter() - t0 < seconds:
            first = len(probe.samples) - 1
            records.append(run_job(wl, j % cycle if cycle else j, runner, probe.clock))
            probe.sample()
            refs.append(probe.mean_since(first))
            j += 1
    return records, refs, time.perf_counter() - t0


def tail_percentile(ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves TAIL_BEYOND samples above it.

    The percentile follows the sample count: with few samples it can sit at
    or under the median. With TAIL_BEYOND samples or fewer none qualifies,
    and the maximum is reported with no samples beyond it.
    """
    s = sorted(ms)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def child_env() -> dict:
    """Environment of every process the benchmark starts: one BLAS thread,
    and the program imported from this checkout's sources."""
    return dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in BLAS_THREAD_VARS})


def fresh_process(argv: list[str], timeout: float = 170.0) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout, check=True,
                          env=child_env())


def setup_probe(args) -> dict:
    proc = fresh_process([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", "0", "--setup-probe"])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_import_ms(module: str) -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        t = time.perf_counter()
        fresh_process([sys.executable, "-c", f"import {module}"], timeout=60.0)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def summarize(records) -> dict:
    failed = [o for _, o in records if o.failures]
    defects = [o for _, o in records if o.defects]
    names = sorted({f for _, o in records for f in o.failures + o.defects})
    return {"attempted": len(records), "failed": len(failed), "known_defect_jobs": len(defects),
            "failure_names": names}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(wl, args, own_setup: dict):
    import speed

    records, refs, wall = timed_phase(wl, args.seconds, wl.run,
                                      sample_during_jobs=wl.in_process)
    rss = peak_rss_mb(with_children=wl.name == "cli_runs")
    setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    setup_s = [s["setup_s"] for s in setups]
    wall_ms = [m for m, _ in records]
    ms = [m * speed.NOMINAL_MS / ref for m, ref in zip(wall_ms, refs)]
    busy_s = sum(ms) / 1e3
    tail, tail_pct, beyond = tail_percentile(ms)
    passed = [o for _, o in records if not o.failures]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "job_ms.p50": (statistics.median(ms), "ms"),
        "job_ms.tail": (tail, "ms"),
        "jobs_per_s": (len(passed) / busy_s, "1/s"),
        "geometries_per_s": (sum(o.geometries for o in passed) / busy_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    summary = summarize(records)
    n, failed = summary["attempted"], summary["failed"]
    with_defects = sum(1 for _, o in records if o.failures or o.defects)
    wall_tail = tail_percentile(wall_ms)[0]
    detail = {
        "fail_frac": (failed / n, "ratio"),
        "fail_frac.with_known_defects": (with_defects / n, "ratio"),
        "wall.setup_s": (statistics.median(s["wall.setup_s"] for s in setups), "s"),
        "wall.job_ms.p50": (statistics.median(wall_ms), "ms"),
        "wall.job_ms.tail": (wall_tail, "ms"),
        "wall.jobs_per_s": (len(passed) / wall, "1/s"),
        "reference_ms.p50": (statistics.median(refs), "ms"),
        "notes": {
            "setup_s": f"median of {len(setups)} set-ups, adjusted to the usual speed",
            "job_ms.p50": f"{n} jobs, adjusted to the usual speed",
            "job_ms.tail": (f"p{tail_pct:.4g} of {n} jobs, {beyond} beyond" if beyond
                            else f"maximum of {n} jobs"),
            "jobs_per_s": "per adjusted second of job time",
            "geometries_per_s": "per adjusted second of job time",
            "fail_frac": f"{failed} of {n} jobs",
            "fail_frac.with_known_defects": f"{with_defects} of {n} jobs",
            "wall.jobs_per_s": "per second of the timed phase, checks included",
            "reference_ms.p50": f"nominal {speed.NOMINAL_MS} ms",
        },
        "setup_s.samples": setup_s,
        "job_ms.tail.percentile": tail_pct,
        "timed_phase_s": wall,
        **summary,
    }
    return metrics, detail


def traced_run(wl, args):
    import numpy as np
    import spans

    k = wl.trace_jobs
    untraced, _, _ = timed_phase(wl, args.seconds, wl.run_inprocess, cycle=k, min_jobs=k)
    tracer = spans.Tracer()

    def traced_runner(i):
        def runner(x):
            with tracer.job_span(i):
                return wl.run_inprocess(x)
        return runner

    with tracer.installed():
        traced = [run_job(wl, i, traced_runner(i)) for i in range(k)]

    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))

    metrics = {}
    for name in spans.span_names():
        calls, ms, own = total(name)
        metrics[f"{name}.calls"] = (calls / k, "count")
        metrics[f"{name}.ms"] = (ms / k, "ms")
        metrics[f"{name}.self_ms"] = (own / k, "ms")

    fock = [total(f"fockspace.{fn}") for fn in spans.LAYERS["fockspace"]]
    ops = sum(c for c, _, _ in fock) / k
    wrapper_us = spans.wrapper_cost_us()
    distinct_params = len({wl.params_key(wl.inputs(i)) for i in range(k)})
    geometries = sum(o.geometries for _, o in traced)
    # the last untraced pass ran just before the traced one: the machine's
    # speed drifts over minutes, so adjacent passes compare best
    untraced_p50 = statistics.median(m for m, _ in untraced[-k:])
    traced_p50 = statistics.median(m for m, _ in traced)
    numpy_ms = fresh_import_ms("numpy")
    metrics.update({
        "fockspace.ops": (ops, "count"),
        "fockspace.self_ms": (sum(o for _, _, o in fock) / k, "ms"),
        "fockspace.wrapper_ms_est": (ops * wrapper_us / 1e3, "ms"),
        "model.builds_per_params":
            (total("model.intermediate_eigensystem")[0] / distinct_params, "ratio"),
        "amplitudes.dipole_block.calls_per_geometry":
            (total("amplitudes.dipole_block")[0] / geometries if geometries else 0.0, "ratio"),
        "cli.bytes_written": (sum(o.bytes_written for _, o in traced) / k, "bytes"),
        "interp.numpy_import_ms": (numpy_ms, "ms"),
        "interp.xepecs_import_ms": (fresh_import_ms("xepecs") - numpy_ms, "ms"),
        "trace.untraced_job_ms.p50": (untraced_p50, "ms"),
        "trace.traced_job_ms.p50": (traced_p50, "ms"),
        "trace.overhead": (traced_p50 / untraced_p50, "ratio"),
        "trace.wrapper_us": (wrapper_us, "us"),
    })

    WORKDIR.mkdir(parents=True, exist_ok=True)
    spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz"
    np.savez(spans_path, **tracer.arrays())

    detail = {"trace_jobs": k, "distinct_params": distinct_params,
              "traced_geometries": geometries, "spans": len(tracer.start),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "fockspace.self_ms.note": "inflated by one wrapper per call, "
                                        "about fockspace.wrapper_ms_est",
              **summarize(untraced + traced)}
    return metrics, detail


# ---------------------------------------------------------------------------
# context and output
# ---------------------------------------------------------------------------

def run_context(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "xepecs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "clients": 1, "loop": "closed",
    }


def write_output(args, metrics: dict, detail: dict) -> None:
    context = run_context(args)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    lines = [f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    notes = detail.get("notes", {})
    shown = {**metrics, **{k: v for k, v in detail.items()
                           if k.startswith(("fail_frac", "wall.", "reference_ms"))}}
    lines += [f"# {name:<48} {value:>14.6g} {unit:<6} {notes.get(name, '')}".rstrip()
              for name, (value, unit) in shown.items()]
    lines += [f"# {key}: {json.dumps(value)}" for key, value in detail.items()
              if key not in shown and key != "notes"]
    lines.append(f"# context: {json.dumps(context)}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"context": context, "detail": detail, "result": result},
                              indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xepecs" / "__init__.py").is_file():
        print(f"error: no xepecs sources at {SRC / 'xepecs'}", file=sys.stderr)
        return 2
    os.environ.update(child_env())
    sys.path[:0] = [str(HERE), str(SRC)]

    import speed
    import workloads
    import xepecs

    if Path(xepecs.__file__).resolve().parent != (SRC / "xepecs").resolve():
        print(f"error: imported xepecs from {xepecs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, WORKDIR, SRC)
    try:
        with speed.SpeedProbe(wl.in_process) as probe:
            probe.sample()
            run_job(wl, 0, wl.run)   # warm-up: untimed, not counted
            probe.sample()
        wall_setup_s = time.perf_counter() - _T0 - probe.paused_s
        setup = {"setup_s": wall_setup_s * speed.NOMINAL_MS / probe.mean_since(0),
                 "wall.setup_s": wall_setup_s}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        if args.trace:
            metrics, detail = traced_run(wl, args)
        else:
            metrics, detail = untraced_run(wl, args, setup)
    finally:
        wl.close()
    write_output(args, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
