"""Command-line interface: xps, xepecs, rho and entropy runs with CSV/JSON/SVG output.

Configuration is three layers over one key table: its defaults, a flat JSON
config file (--config or $XEPECS_CONFIG), then the flags given; the table also
gives the parser its value flags. Identical inputs produce byte-identical CSV/JSON.

Exit codes: 0 ok, 2 configuration error, 3 computation domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .amplitudes import CHANNELS, channel_label, xepecs_amplitudes
from .entanglement import entangled_state, entropy_sweep, full_density_matrix
from .fockspace import Spin
from .model import DomainError, ModelParams
from .polarization import EmissionGeometry, _orthogonal
from .spectra import (
    auto_epsilon,
    broaden,
    default_xps_grid,
    xepecs_spectrum,
    xps_lines,
)

# key: (default, flag or None, metavar), in --help order; entropy's theta_deg is 0:180:1
_CONFIG_KEYS = {
    **{f.name: (f.default, None, None) for f in fields(ModelParams)},
    "theta_deg": (90.0, "theta", "DEG|START:END:STEP"),
    "phi_deg": (0.0, "phi", "DEG"),
    "beta1_deg": (90.0, "beta1", "DEG"),
    "beta2_deg": (180.0, "beta2", "DEG"),
    "epsilon": ("auto", "epsilon", "EV|auto"),
}

# a flag's number: ASCII decimal, not every spelling float() takes (1_0, " 5 ", fullwidth digits)
_DECIMAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)

# longest entropy sweep accepted; covers --theta 0:180:0.001
MAX_THETAS = 200_001


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass
class RunConfig:
    params: ModelParams
    thetas_deg: list[float]      # one entry except for entropy sweeps
    phi_deg: float
    beta1_deg: float
    beta2_deg: float
    epsilon: float | str         # eV or "auto"
    out: Path | None
    format: str
    spin: Spin

    def geometry(self, theta_deg: float | None = None) -> EmissionGeometry:
        theta = self.thetas_deg[0] if theta_deg is None else theta_deg
        try:
            return EmissionGeometry.from_degrees(theta, self.phi_deg,
                                                 self.beta1_deg, self.beta2_deg)
        except ValueError as exc:
            raise ConfigError(f"theta/beta1/beta2: {exc}") from exc

    def resolve_epsilon(self) -> float:
        if self.epsilon == "auto":
            return auto_epsilon(self.params)
        return float(self.epsilon)


def _number(field: str, value: float | str) -> float:
    """``value`` as a finite float, or a ConfigError naming ``field``."""
    try:
        number = float(value)
    except ValueError as exc:   # a flag's text
        raise ConfigError(f"{field}: expected a number, got {value!r}") from exc
    except OverflowError:   # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    if isinstance(value, str) and not _DECIMAL.fullmatch(value):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    return number


def _parse_theta(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("theta: expected DEG or START:END:STEP")
        start, end, step = (_number("theta", p) for p in parts)
        if step <= 0 or end < start:
            raise ConfigError("theta: need END >= START and STEP > 0")
        span = (end - start) / step + 1e-9
        if not span < MAX_THETAS:
            raise ConfigError(f"theta: a sweep may have at most {MAX_THETAS} angles")
        count = int(np.floor(span)) + 1
        # start + k * step may round past END on the last angle
        values = np.minimum(start + np.arange(count) * step, end)
    else:
        values = np.array([_number("theta", text)])
    outside = values[~((values >= 0.0) & (values <= 180.0))]
    if outside.size:
        raise ConfigError(f"theta: {float(outside[0])} outside [0, 180] degrees")
    return values.tolist()


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("XEPECS_CONFIG") or None
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8-sig")   # a leading BOM is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:   # also too many digits or too deep
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{key}: unknown configuration key")
        if key == "epsilon" and value == "auto":
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{key}: expected a number")
        data[key] = _number(key, value)
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    defaults = {key: default for key, (default, _, _) in _CONFIG_KEYS.items()}
    if args.command == "entropy":
        defaults["theta_deg"] = "0:180:1"
    flags = {key: vars(args)[flag] for key, (_, flag, _) in _CONFIG_KEYS.items()
             if vars(args).get(flag) is not None}
    values = {**defaults, **_load_config_file(args.config), **flags}

    try:
        params = ModelParams(**{f.name: values[f.name] for f in fields(ModelParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    thetas = _parse_theta(str(values["theta_deg"]))
    if args.command != "entropy" and len(thetas) != 1:
        raise ConfigError("theta: a single angle is required for this command")

    # a file value is a finite float, so only a flag's text can fail here
    phi, beta1, beta2 = (_number(_CONFIG_KEYS[key][1], values[key])
                         for key in ("phi_deg", "beta1_deg", "beta2_deg"))
    if not _orthogonal(math.radians(beta1), math.radians(beta2)):
        raise ConfigError(f"beta2: polarization axes {beta1} and {beta2} degrees "
                          "are not orthogonal")

    epsilon: float | str
    epsilon = "auto" if values["epsilon"] == "auto" else _number("epsilon", values["epsilon"])
    if epsilon != "auto" and not epsilon > 0.0:
        raise ConfigError(f"epsilon: {epsilon:g} eV is below threshold; "
                          "a kinetic energy must be positive")

    out = Path(args.out) if args.out is not None else None
    spin = Spin(getattr(args, "spin", Spin.UP.value))
    cfg = RunConfig(params, thetas, phi, beta1, beta2, epsilon, out, args.format, spin)
    cfg.geometry(thetas[0])  # validate angles early
    return cfg


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(float(x)))


def _write_text(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path}: {exc.strerror or exc}") from exc


def _csv(header: list[str], columns: list[np.ndarray | list]) -> str:
    row = ",".join(["{:.12g}"] * len(columns)) + "\n"   # _fmt per column, one call per row
    values = (np.asarray(col, dtype=float).tolist() for col in columns)
    return ",".join(header) + "\n" + "".join(map(row.format, *values))


def _json_dump(obj) -> str:
    def clean(node):
        if isinstance(node, float):
            return _round12(node)
        if isinstance(node, dict):
            return {k: clean(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [clean(v) for v in node]
        return node

    return json.dumps(clean(obj), indent=2) + "\n"


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")


def _render_svg(title: str, xlabel: str, ylabel: str,
                series: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 70.0, 20.0, 40.0, 50.0
    x_min = min(float(np.min(xs)) for _, xs, _ in series)
    x_max = max(float(np.max(xs)) for _, xs, _ in series)
    y_min = min(0.0, min(float(np.min(ys)) for _, _, ys in series))
    y_max = max(float(np.max(ys)) for _, _, ys in series)
    if y_max == y_min:
        y_max = y_min + 1.0
    if x_max == x_min:
        x_max = x_min + 1.0

    def sx(x):
        return ml + (x - x_min) / (x_max - x_min) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_min) / (y_max - y_min) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{ml:g}" y1="{height - mb:g}" x2="{width - mr:g}" y2="{height - mb:g}" '
        'stroke="black"/>',
        f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height - mb:g}" stroke="black"/>',
        f'<text x="{width / 2:g}" y="{height - 12:g}" text-anchor="middle" font-size="13">'
        f'{xlabel}</text>',
        f'<text x="18" y="{height / 2:g}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height / 2:g})">{ylabel}</text>',
        f'<text x="{ml:g}" y="{height - mb + 16:g}" text-anchor="middle" font-size="11">'
        f'{_fmt(x_min)}</text>',
        f'<text x="{width - mr:g}" y="{height - mb + 16:g}" text-anchor="middle" '
        f'font-size="11">{_fmt(x_max)}</text>',
        f'<text x="{ml - 6:g}" y="{sy(y_min):g}" text-anchor="end" font-size="11">'
        f'{_fmt(y_min)}</text>',
        f'<text x="{ml - 6:g}" y="{sy(y_max) + 4:g}" text-anchor="end" font-size="11">'
        f'{_fmt(y_max)}</text>',
    ]
    for k, (name, xs, ys) in enumerate(series):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = " ".join(f"{sx(float(x)):.6g},{sy(float(y)):.6g}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - mr - 8:g}" y="{mt + 16 + 16 * k:g}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _curves(fmt: str, x_name: str, x: np.ndarray, curves: list[tuple[str, np.ndarray]],
            svg_text: tuple[str, str, str], head: dict | None = None,
            tail: dict | None = None) -> str:
    """Named curves over one x axis as csv columns, json lists (the ``head``
    entries right after the x axis, the ``tail`` entries last) or svg polylines
    (``svg_text`` is the title and the two axis labels)."""
    if fmt == "csv":
        return _csv([x_name] + [n for n, _ in curves], [x] + [y for _, y in curves])
    if fmt == "json":
        payload = {x_name: [float(v) for v in x], **(head or {})}
        payload.update({n: [float(v) for v in y] for n, y in curves})
        return _json_dump({**payload, **(tail or {})})
    return _render_svg(*svg_text, [(n, x, y) for n, y in curves])


def _run_xps(config: RunConfig) -> str:
    lines = xps_lines(config.params, config.spin)
    grid = default_xps_grid()
    series = broaden(lines, config.params.Gamma_1s, grid)
    tail = {"lines": [{"kinetic_energy_eV": l.position, "weight": l.weight, "j": str(l.j)}
                      for l in lines.lines]}
    return _curves(config.format, "kinetic_energy_eV", grid,
                   [(f"intensity_{config.spin.value}", series.intensity)],
                   (f"1s photoemission ({config.spin.value}-spin)", "kinetic energy (eV)",
                    "intensity (1/eV)"), tail=tail)


def _run_xepecs(config: RunConfig) -> str:
    epsilon = config.resolve_epsilon()
    geom = config.geometry()
    curves, grid = [], None
    for channel in CHANNELS:
        series = xepecs_spectrum(config.params, geom, epsilon, channel, grid)
        grid = series.grid
        curves.append((f"I_{channel_label(channel)}", series.intensity))
    return _curves(config.format, "emission_energy_eV", grid, curves,
                   ("coincidence emission spectra", "emission energy (eV)", "intensity (1/eV)"),
                   head={"epsilon_eV": float(epsilon)})


def _run_rho(config: RunConfig) -> str:
    epsilon = config.resolve_epsilon()
    amps = xepecs_amplitudes(config.params, config.geometry(), epsilon)
    rho = full_density_matrix(entangled_state(amps))
    if config.format == "csv":
        rows = [f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}"
                for (i, j), z in np.ndenumerate(rho.matrix)]
        return "\n".join(["row,col,re,im"] + rows) + "\n"
    return _json_dump({
        "basis": list(rho.basis),
        "theta_deg": config.thetas_deg[0],
        "phi_deg": config.phi_deg,
        "epsilon_eV": float(epsilon),
        "matrix": [[{"re": float(z.real), "im": float(z.imag)} for z in row]
                   for row in rho.matrix],
    })


def _run_entropy(config: RunConfig) -> str:
    epsilon = config.resolve_epsilon()
    curve = entropy_sweep(config.params, config.geometry(90.0), config.thetas_deg, epsilon)
    return _curves(config.format, "theta_deg", curve.thetas, [("entropy_bits", curve.entropy)],
                   ("entanglement entropy vs emission angle", "theta (deg)", "entropy (bits)"))


class Command(NamedTuple):
    runner: Callable[[RunConfig], str]   # the output text
    formats: tuple[str, ...]              # the default first
    help: str


COMMANDS = {
    "xps": Command(_run_xps, ("csv", "json", "svg"),
                   "spin-resolved core-level photoemission spectrum"),
    "xepecs": Command(_run_xepecs, ("csv", "json", "svg"),
                      "polarization- and spin-resolved emission spectra"),
    "rho": Command(_run_rho, ("json", "csv"), "spin-polarization density matrix"),
    "entropy": Command(_run_entropy, ("csv", "json", "svg"),
                       "entanglement entropy against emission angle"),
}


def run(command: str, config: RunConfig) -> Path:
    """Execute one command and return the written output path."""
    if command not in COMMANDS:
        raise ConfigError(f"command: unknown command {command!r}")
    out = config.out if config.out is not None else Path(f"{command}.{config.format}")
    _write_text(out, COMMANDS[command].runner(config))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xepecs",
        description="Coincidence spectra and spin-polarization entanglement "
                    "of the two-shell atomic model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="flat JSON config file (fallback: $XEPECS_CONFIG)")
        for _, flag, metavar in _CONFIG_KEYS.values():
            if flag is not None:
                p.add_argument(f"--{flag}", metavar=metavar, default=None)
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--format", choices=command.formats, default=command.formats[0])
        if name == "xps":
            p.add_argument("--spin", choices=("up", "down"), default="up")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        out = run(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0
