"""Correctness checks shared by every workload.

Each check returns a list of failure names; an empty list means it passed.
A job fails when any check it ran reports a failure, and a failed job stays
in the denominator of ``fail_frac``.

The checks test the paper's invariants, not stored reference outputs, so
they hold for every seeded input:

- entropy oracle: S(theta) = -sum x log2 x with x = (1 +/- |cos theta|) / 2,
  for every orthogonal polarization pair, azimuth, kinetic energy and model
  parameter set;
- photoemission: total strength over both spins is 1, J = 2 lines are dark,
  and the down/up J = 1 weight ratio is 2;
- density matrices are Hermitian, unit trace and positive semidefinite;
- the CLI writes byte-identical files for the same argv.

The grid-edge test on an automatic kinetic energy is a known defect of the
program, not an invariant; see ``eps_on_grid_edge``.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from math import cos, log2, radians

import numpy as np

ENTROPY_TOL = 1e-9          # in-process values against the oracle
CLI_ENTROPY_TOL = 1e-11     # CLI values carry 12 significant digits
STRENGTH_TOL = 1e-12
DARK_TOL = 1e-12
# Draws with G or zeta within about 1e-5 eV of zero leave J = 0 and J = 1
# levels a few 1e-6 eV apart; floating-point eigenvectors then mix them at
# the 1e-8 level. A real selection-rule or normalization error is far larger.
RATIO_TOL = 1e-6
MATRIX_TOL = 1e-10


def entropy_oracle(theta_deg: float) -> float:
    """Entanglement entropy in bits of the photoelectron spin at angle theta."""
    c = abs(cos(radians(theta_deg)))
    return -sum(x * log2(x) for x in ((1.0 + c) / 2.0, (1.0 - c) / 2.0) if x > 0.0)


def check_entropy(thetas_deg, values, tol: float = ENTROPY_TOL) -> list[str]:
    if len(thetas_deg) != len(values):
        return ["entropy.length"]
    for theta, s in zip(thetas_deg, values):
        if not abs(float(s) - entropy_oracle(float(theta))) <= tol:
            return ["entropy.oracle"]
    return []


def check_photoemission(up_lines, down_lines) -> list[str]:
    """Invariants of the two spin-resolved XPS line spectra of one parameter set."""
    failures = []
    lines = tuple(up_lines.lines) + tuple(down_lines.lines)
    if not abs(sum(l.weight for l in lines) - 1.0) <= STRENGTH_TOL:
        failures.append("xps.strength")
    if not all(l.weight <= DARK_TOL for l in lines if str(l.j) == "2"):
        failures.append("xps.j2_dark")
    up_j1 = sum(l.weight for l in up_lines.lines if str(l.j) == "1")
    down_j1 = sum(l.weight for l in down_lines.lines if str(l.j) == "1")
    if not (up_j1 > 0.0 and abs(down_j1 / up_j1 - 2.0) <= RATIO_TOL):
        failures.append("xps.j1_ratio")
    return failures


def check_density_matrix(matrix, tol: float = MATRIX_TOL) -> list[str]:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        return ["rho.shape"]
    failures = []
    if not np.max(np.abs(m - m.conj().T)) <= tol:
        failures.append("rho.hermitian")
    if not abs(np.trace(m) - 1.0) <= tol:
        failures.append("rho.trace")
    if not np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) >= -tol:
        failures.append("rho.positive")
    return failures


def eps_on_grid_edge(epsilon: float, grid) -> bool:
    """True when an automatic kinetic energy sits on an end of its grid.

    The J = 1 peak then lies outside the grid and the returned energy is not
    a peak maximum. The program does not reject this case yet, so the
    benchmark counts it on its own, beside the failures.
    """
    return epsilon <= float(grid[0]) or epsilon >= float(grid[-1])


class ByteIdentity:
    """Remembers the bytes each argv wrote and compares later runs with them."""

    def __init__(self):
        self._seen: dict[tuple[str, ...], bytes] = {}

    def check(self, argv, data: bytes) -> list[str]:
        first = self._seen.setdefault(tuple(argv), data)
        return [] if first == data else ["cli.byte_identity"]


def _csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def _svg_polylines(text: str) -> list[int]:
    """Point counts of the polylines of an SVG document."""
    root = ET.fromstring(text)
    return [len(el.get("points", "").split())
            for el in root.iter() if el.tag.endswith("polyline")]


def check_cli_output(command: str, fmt: str, text: str, thetas_deg) -> list[str]:
    """Parse one CLI output file and test the invariants its command carries.

    ``thetas_deg`` are the angles requested from ``entropy``.
    """
    try:
        if fmt == "svg":
            return _check_svg(command, text, thetas_deg)
        if command == "entropy":
            if fmt == "csv":
                _, table = _csv_rows(text)
                thetas, values = table[:, 0], table[:, 1]
            else:
                doc = json.loads(text)
                thetas, values = doc["theta_deg"], doc["entropy_bits"]
            if len(thetas) != len(thetas_deg):
                return ["cli.entropy_length"]
            return check_entropy(thetas, values, CLI_ENTROPY_TOL)
        if command == "rho":
            if fmt == "csv":
                _, table = _csv_rows(text)
                m = np.zeros((4, 4), dtype=complex)
                for row, col, re, im in table:
                    m[int(row), int(col)] = complex(re, im)
            else:
                m = np.array([[complex(z["re"], z["im"]) for z in row]
                              for row in json.loads(text)["matrix"]])
            return check_density_matrix(m)
        if command == "xps":
            if fmt == "csv":
                _, table = _csv_rows(text)
                intensity = table[:, 1]
            else:
                doc = json.loads(text)
                intensity = np.array(next(v for k, v in doc.items()
                                          if k.startswith("intensity_")))
                if not all(l["weight"] <= DARK_TOL for l in doc["lines"] if l["j"] == "2"):
                    return ["xps.j2_dark"]
            return _check_series(intensity, 601)
        if command == "xepecs":
            if fmt == "csv":
                header, table = _csv_rows(text)
                if len(header) != 5:
                    return ["cli.parse"]
                intensity = table[:, 1:]
            else:
                doc = json.loads(text)
                intensity = np.array([doc[f"I_{c}"] for c in ("U1", "U2", "D1", "D2")]).T
            return _check_series(intensity, 1201)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration, ET.ParseError):
        return ["cli.parse"]
    return ["cli.unknown_command"]


def _check_series(intensity: np.ndarray, rows: int) -> list[str]:
    if len(intensity) != rows:
        return ["cli.rows"]
    if not (np.all(np.isfinite(intensity)) and np.all(intensity >= 0.0)):
        return ["cli.intensity"]
    return []


def _check_svg(command: str, text: str, thetas_deg) -> list[str]:
    expected = {"entropy": [len(thetas_deg)], "xps": [601], "xepecs": [1201] * 4}
    if command not in expected:
        return ["cli.unknown_command"]
    return [] if _svg_polylines(text) == expected[command] else ["cli.svg_series"]
