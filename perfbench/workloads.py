"""The three seeded workloads.

A workload turns (seed, job index) into plain inputs, runs one job on them
through the public ``xepecs`` API or CLI, and checks the job's outputs.
Only ``run`` is timed; generating inputs and checking outputs are not.
Functions are looked up on the ``xepecs`` package at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import xepecs
import xepecs.cli
import xepecs.spectra
from xepecs.amplitudes import CHANNELS
from xepecs.fockspace import Spin

import checks

# kinetic energies (eV) inside the J = 1 photoemission peak of the default model
J1_PEAK_EV = (6.3, 6.7)


@dataclass
class Outcome:
    geometries: int
    failures: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)   # known program defects hit
    bytes_written: int = 0


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def _orthogonal_geometry(theta_deg: float, phi_deg: float, beta1_deg: float):
    return xepecs.EmissionGeometry.from_degrees(theta_deg, phi_deg, beta1_deg, beta1_deg + 90.0)


class Workload:
    """Defaults shared by the workloads: the default model, jobs run in
    process, and nothing to clean up."""

    trace_jobs = 1   # jobs in the fixed set a traced run wraps
    in_process = True   # ``run`` computes in this process

    def params_key(self, x: dict):
        return "default"

    def run_inprocess(self, x: dict):
        return self.run(x)

    def close(self):
        pass


class AngleSweep(Workload):
    """One entropy sweep over theta = 0:180:step per job, default model."""

    name = "angle_sweep"

    def __init__(self, seed: int, step_deg: float = 0.1):
        self.seed = seed
        self.thetas = [k * step_deg for k in range(int(round(180.0 / step_deg)) + 1)]

    def inputs(self, i: int) -> dict:
        r = _rng(self.name, self.seed, i)
        return {"phi": r.uniform(0.0, 360.0), "beta1": r.uniform(0.0, 180.0),
                "epsilon": r.uniform(*J1_PEAK_EV)}

    def run(self, x: dict):
        geom = _orthogonal_geometry(90.0, x["phi"], x["beta1"])
        return xepecs.entropy_sweep(xepecs.ModelParams(), geom, self.thetas, x["epsilon"])

    def check(self, x: dict, curve) -> Outcome:
        failures = checks.check_entropy(self.thetas, curve.entropy)
        if list(curve.thetas) != self.thetas:
            failures.append("entropy.thetas")
        return Outcome(len(self.thetas), failures)


class ParamScan(Workload):
    """One seeded ModelParams draw per job, run through all four commands' paths."""

    name = "param_scan"
    trace_jobs = 16   # two full cycles of the draw classes below
    GEOMETRIES = 7    # rho 1 + xepecs 1 + five entropy angles

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        r = _rng(self.name, self.seed, i)
        params = {
            "G": 0.0 if i % 4 == 0 else r.uniform(0.0, 1.0),
            "zeta": 0.0 if i % 4 == 1 else r.uniform(0.0, 0.5),
            "eps_p": r.uniform(-7.0, -3.0),
            "Gamma_1s": r.uniform(0.2, 0.8),
            "gamma": r.uniform(0.2, 0.6),
        }
        if i % 8 == 7:
            # J = 1 lines outside the 5-8 eV kinetic-energy grid
            params["Omega"] = r.choice((15.0, 30.0))
        return {"params": params, "theta": r.uniform(0.0, 180.0), "phi": r.uniform(0.0, 360.0),
                "beta1": r.uniform(0.0, 180.0),
                "thetas": [r.uniform(0.0, 180.0) for _ in range(5)]}

    def params_key(self, x: dict):
        return tuple(sorted(x["params"].items()))

    def run(self, x: dict) -> dict:
        p = xepecs.ModelParams(**x["params"])
        grid = xepecs.spectra.default_xps_grid()
        lines = {}
        for spin in (Spin.UP, Spin.DOWN):
            lines[spin] = xepecs.xps_lines(p, spin)
            xepecs.broaden(lines[spin], p.Gamma_1s, grid)
        epsilon = xepecs.auto_epsilon(p)
        geom = _orthogonal_geometry(x["theta"], x["phi"], x["beta1"])
        rho = xepecs.full_density_matrix(
            xepecs.entangled_state(xepecs.xepecs_amplitudes(p, geom, epsilon)))
        spectra, emission_grid = [], None
        for channel in CHANNELS:
            series = xepecs.xepecs_spectrum(p, geom, epsilon, channel, emission_grid)
            emission_grid = series.grid
            spectra.append(series.intensity)
        curve = xepecs.entropy_sweep(p, geom, x["thetas"], epsilon)
        return {"lines": lines, "grid": grid, "epsilon": epsilon, "rho": rho.matrix,
                "spectra": spectra, "curve": curve}

    def check(self, x: dict, out: dict) -> Outcome:
        failures = checks.check_photoemission(out["lines"][Spin.UP], out["lines"][Spin.DOWN])
        failures += checks.check_density_matrix(out["rho"])
        if not all(np.all(np.isfinite(s)) for s in out["spectra"]):
            failures.append("xepecs.finite")
        failures += checks.check_entropy(x["thetas"], out["curve"].entropy)
        defects = (["eps_on_grid_edge"]
                   if checks.eps_on_grid_edge(out["epsilon"], out["grid"]) else [])
        return Outcome(self.GEOMETRIES, failures, defects)


class CliRuns(Workload):
    """Fresh-interpreter ``python -m xepecs`` runs cycling the README commands.

    Job i uses argv slot i % SLOTS, so every argv repeats and its output can
    be compared byte for byte with the first run's.
    """

    name = "cli_runs"
    COMMANDS = ("rho", "xps", "xepecs", "entropy")
    FORMATS = {"rho": ("json", "csv"), "xps": ("csv", "json", "svg"),
               "xepecs": ("csv", "json", "svg"), "entropy": ("csv", "json", "svg")}
    SLOTS = 12
    trace_jobs = SLOTS
    in_process = False
    ENTROPY_THETAS = [float(t) for t in range(181)]   # --theta 0:180:1

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=workdir))
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.identity = checks.ByteIdentity()

    def inputs(self, i: int) -> dict:
        slot = i % self.SLOTS
        r = _rng(self.name, self.seed, slot)
        command = self.COMMANDS[slot % len(self.COMMANDS)]
        formats = self.FORMATS[command]
        fmt = formats[(slot // len(self.COMMANDS)) % len(formats)]
        theta, phi = r.uniform(0.0, 180.0), r.uniform(0.0, 360.0)
        beta1 = round(r.uniform(0.0, 90.0), 1)   # so both printed axes stay orthogonal
        args = {
            "rho": ["--theta", f"{theta:.1f}", "--phi", f"{phi:.1f}"],
            "xps": ["--spin", r.choice(("up", "down"))],
            "xepecs": ["--theta", f"{theta:.1f}", "--epsilon", f"{r.uniform(*J1_PEAK_EV):.3f}"],
            "entropy": ["--theta", "0:180:1", "--phi", f"{phi:.1f}",
                        "--beta1", f"{beta1:.1f}", "--beta2", f"{beta1 + 90.0:.1f}"],
        }[command]
        out = self.workdir / f"slot{slot:02d}.{fmt}"
        return {"command": command, "format": fmt, "out": out,
                "argv": [command, *args, "--format", fmt, "--out", str(out)]}

    def run(self, x: dict):
        proc = subprocess.run([sys.executable, "-m", "xepecs", *x["argv"]], cwd=self.workdir,
                              env=self.env, capture_output=True, timeout=120)
        return proc.returncode

    def run_inprocess(self, x: dict):
        with redirect_stdout(io.StringIO()):
            return xepecs.cli.main(x["argv"])

    def geometries(self, command: str) -> int:
        return {"rho": 1, "xps": 0, "xepecs": 1, "entropy": len(self.ENTROPY_THETAS)}[command]

    def check(self, x: dict, returncode: int) -> Outcome:
        outcome = Outcome(self.geometries(x["command"]))
        if returncode != 0:
            outcome.failures.append("cli.exit_code")
            return outcome
        try:
            data = x["out"].read_bytes()
            x["out"].unlink()
        except OSError:
            outcome.failures.append("cli.no_output")
            return outcome
        outcome.bytes_written = len(data)
        outcome.failures += self.identity.check(x["argv"], data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            outcome.failures.append("cli.parse")
            return outcome
        outcome.failures += checks.check_cli_output(x["command"], x["format"], text,
                                                    self.ENTROPY_THETAS)
        return outcome

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, workdir: Path, src: Path):
    if name == "angle_sweep":
        return AngleSweep(seed)
    if name == "param_scan":
        return ParamScan(seed)
    if name == "cli_runs":
        return CliRuns(seed, workdir, src)
    raise ValueError(f"unknown workload {name!r}")
