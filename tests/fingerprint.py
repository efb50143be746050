"""One SHA-256 over the program's outputs, to compare two trees byte for byte.

Run from anywhere, with no options:

    python3 tests/fingerprint.py

It prints one hex digest over three sets of outputs, each labelled in the hash:

- the README-style command lines through ``cli.main``, in every format each
  command writes, at the default parameters and at Omega = 30, G = 0,
  zeta = 0 and G = zeta = 0 (a config file): ``entropy --theta 0:180:1``,
  ``xps --spin up|down``, ``xepecs --theta 45`` at epsilon = 6.5 and at the
  automatic epsilon, and ``rho`` at theta = 0, 33, 45, 180 and at theta = 90
  with phi = 0; each run's exit code and its output bytes, or its error message;
- sweeps that repeat one 1,801-angle grid, so that both a grid the sweep holds
  and one it forms again are covered: one list object over four (phi, beta1,
  epsilon) and two models, an equal fresh list, a grid whose first angle is
  -0.0, then the first list again; each curve's angles and entropies as bytes;
- the arrays of a seeded pass of the library calls a parameter scan makes
  (photoemission lines and their broadening, the automatic epsilon, rho, the
  four coincidence rows and a five-angle entropy sweep) on random parameter
  sets, each with its dtype and shape, and the complex amplitudes and reduced
  amplitude R behind them, so that a last-bit move in a phase shows too.

numpy's SIMD paths may change last bits from one machine to another, so the
digest is only comparable between trees run on the same machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import xepecs  # noqa: E402
from xepecs import cli  # noqa: E402
from xepecs.amplitudes import CHANNELS, calculator  # noqa: E402
from xepecs.fockspace import Spin  # noqa: E402
from xepecs.spectra import default_xps_grid  # noqa: E402

PARAMETER_SETS = ({}, {"Omega": 30.0}, {"G": 0.0}, {"zeta": 0.0}, {"G": 0.0, "zeta": 0.0})
COMMANDS = (
    (["entropy", "--theta", "0:180:1"], ("csv", "json", "svg")),
    (["xps", "--spin", "up"], ("csv", "json", "svg")),
    (["xps", "--spin", "down"], ("csv", "json", "svg")),
    (["xepecs", "--theta", "45", "--epsilon", "6.5"], ("csv", "json", "svg")),
    (["xepecs", "--theta", "45"], ("csv", "json", "svg")),
    *((["rho", "--theta", theta], ("json", "csv")) for theta in ("0", "33", "45", "180")),
    (["rho", "--theta", "90", "--phi", "0"], ("json", "csv")),
)
GRID_MODELS = ({}, {"G": 0.7, "zeta": 0.35, "eps_p": -4.2, "Gamma_1s": 0.3})
GRID_GEOMETRIES = ((0.0, 90.0, 6.5), (37.0, 12.5, 4.0), (250.0, 171.0, 9.75), (123.4, -40.0, 6.2))
SCAN_JOBS = 200
SCAN_THETAS = 5


def cli_outputs(digest, workdir: Path) -> None:
    for k, overrides in enumerate(PARAMETER_SETS):
        config = workdir / f"params{k}.json"
        config.write_text(json.dumps(overrides))
        for argv, formats in COMMANDS:
            for fmt in formats:
                out = workdir / f"out.{fmt}"
                args = [*argv, "--format", fmt, "--out", str(out), "--config", str(config)]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(args)
                data = out.read_bytes() if code == 0 else err.getvalue().encode()
                out.unlink(missing_ok=True)
                digest.update(f"cli {json.dumps(overrides)} {' '.join(argv)} {fmt} "
                              f"exit {code} bytes {len(data)}\n".encode())
                digest.update(data)


def grid_outputs(digest) -> None:
    grid = [k * 0.1 for k in range(1801)]
    for label, thetas in (("list", grid), ("fresh list", list(grid)),
                          ("negative zero", [-0.0, *grid[1:]]), ("list again", grid)):
        for overrides in GRID_MODELS:
            params = xepecs.ModelParams(**overrides)
            for phi, beta1, epsilon in GRID_GEOMETRIES:
                geom = xepecs.EmissionGeometry.from_degrees(90.0, phi, beta1, beta1 + 90.0)
                curve = xepecs.entropy_sweep(params, geom, thetas, epsilon)
                digest.update(f"grid {label} {json.dumps(overrides)} {phi} {beta1} {epsilon}\n"
                              .encode())
                digest.update(np.array((curve.thetas, curve.entropy)).tobytes())


def scan_inputs(i: int) -> dict:
    """A parameter scan's draw: exact G = 0 and zeta = 0 in turn, and every
    eighth set's J = 1 lines outside the 5-8 eV kinetic-energy grid."""
    r = random.Random(f"fingerprint:{i}")
    params = {
        "G": 0.0 if i % 4 == 0 else r.uniform(0.0, 1.0),
        "zeta": 0.0 if i % 4 == 1 else r.uniform(0.0, 0.5),
        "eps_p": r.uniform(-7.0, -3.0),
        "Gamma_1s": r.uniform(0.2, 0.8),
        "gamma": r.uniform(0.2, 0.6),
    }
    if i % 8 == 7:
        params["Omega"] = r.choice((15.0, 30.0))
    theta, phi, beta1 = r.uniform(0.0, 180.0), r.uniform(0.0, 360.0), r.uniform(0.0, 180.0)
    thetas = [r.uniform(0.0, 180.0) for _ in range(SCAN_THETAS)]
    return {"params": xepecs.ModelParams(**params), "thetas": thetas,
            "geom": xepecs.EmissionGeometry.from_degrees(theta, phi, beta1, beta1 + 90.0)}


def scan_arrays(x: dict):
    """The labelled outputs of one parameter set's pass through every command's path."""
    p, geom = x["params"], x["geom"]
    grid = default_xps_grid()
    for spin in Spin:
        lines = xepecs.xps_lines(p, spin)
        yield f"lines {spin.value}", [(l.position, l.weight, str(l.j)) for l in lines.lines]
        yield f"xps {spin.value}", xepecs.broaden(lines, p.Gamma_1s, grid).intensity
    epsilon = xepecs.auto_epsilon(p)
    yield "epsilon", epsilon
    amps = xepecs.xepecs_amplitudes(p, geom, epsilon)
    yield "amplitudes", amps.values
    yield "R", np.array(calculator(p).reduced_amplitude(epsilon))
    yield "rho", xepecs.full_density_matrix(xepecs.entangled_state(amps)).matrix
    emission_grid = None
    for channel in CHANNELS:
        series = xepecs.xepecs_spectrum(p, geom, epsilon, channel, emission_grid)
        emission_grid = series.grid
        yield f"xepecs {series.channel}", series.intensity
    yield "emission grid", emission_grid
    yield "entropy", xepecs.entropy_sweep(p, geom, x["thetas"], epsilon).entropy


def scan_outputs(digest) -> None:
    for i in range(SCAN_JOBS):
        for label, value in scan_arrays(scan_inputs(i)):
            if isinstance(value, np.ndarray):
                digest.update(f"scan {i} {label} {value.dtype} {value.shape}\n".encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            else:
                digest.update(f"scan {i} {label} {value!r}\n".encode())


def main() -> None:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        cli_outputs(digest, Path(workdir))
    grid_outputs(digest)
    scan_outputs(digest)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
