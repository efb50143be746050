"""The command-line contract on drawn inputs, in process and with every warning
an error: a run of ``cli.main`` returns 0, 2 or 3. Exit 0 writes an output in
which every number is finite and the model-independent physics holds (see
``check_physics``); exit 2 or 3 writes one ``config error:`` or ``domain
error:`` line to stderr and no output file.

Draws cover every config key with log-uniform magnitudes of either sign, +/-0,
subnormals and the largest float, sweeps of the flags (--epsilon, --phi,
--beta1 with --beta2 = beta1 + 90 degrees, --theta), and all four commands in
every format. The past reproducers run every time (``hard_cases``), through
all four commands with the automatic and a fixed kinetic energy: config
values, flags, and raw config files that no JSON value can stand for (an
integer beyond the float range or over Python's digit limit, bytes that are
not UTF-8, nesting deeper than the decoder's recursion limit).
"""

import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xepecs import cli

LARGEST = sys.float_info.max


def log_uniform(low, high):
    """Magnitudes 10^low .. 10^high of either sign."""
    return st.builds(lambda exponent, sign: sign * 10.0 ** exponent, st.floats(low, high),
                     st.sampled_from([1.0, -1.0]))


# log-uniform magnitudes of either sign over the float range and near 1 eV, and
# the edges of the float range
magnitudes = st.one_of(
    log_uniform(-323.0, 308.0), log_uniform(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-311, -2.2e-311, LARGEST, -LARGEST]),
)
epsilons = st.one_of(st.just("auto"), st.floats(4.0, 9.0), magnitudes)
angles = st.one_of(st.floats(0.0, 360.0), magnitudes)

# the config files of past reproducers, and their flags
HARD_CONFIGS = [
    {"eps_p": 1e14}, {"gamma": 1e-170}, {"Gamma_1s": 1e-170}, {"zeta": 1.5e308, "G": 0.0},
    {"Omega": 1e308}, {"Gamma_1s": 1e-160, "epsilon": 6.507603367391252},
    {"eps_s": 1e20}, {"eps_s": -1e20}, {"eps_s": -1e14}, {"eps_s": 1e308}, {"eps_s": -1e308},
    {"eps_s": 9e307}, {"eps_s": 1e308, "eps_p": 1e308}, {"eps_s": -1.7e308, "eps_p": -1.7e308},
    {"G": -0.89e308, "zeta": 1.79e308, "Omega": -1e308, "eps_s": -1e308},
]
HARD_FILES = [
    '{"G": 1' + "0" * 400 + "}", '{"G": 1' + "0" * 4300 + "}", b"\xff\xfe{}",
    "[" * 200_000 + "]" * 200_000,
]
HARD_FLAGS = [["--beta1=1e308", "--beta2=-1e308"], ["--beta1=-1e308", "--beta2=1e308"]]

# every number is written with 12 significant digits: a printed x is within
# PRINTED |x| of the value it stands for
PRINTED = 5e-12
# a row of intensities below this sum has underflowed: there the float spacing is
# coarser than 12 digits of the smallest number of the range
UNDERFLOWED = sys.float_info.min / PRINTED

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
NOT_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def runs(draw):
    """(command, config as a dict, flags) of one run."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    keys = draw(st.lists(st.sampled_from(list(cli._CONFIG_KEYS)), unique=True, max_size=3))
    config = {key: draw(epsilons if key == "epsilon" else magnitudes) for key in keys}
    flags = [f"--format={draw(st.sampled_from(cli.COMMANDS[command].formats))}"]
    if draw(st.booleans()):
        flags.append(f"--epsilon={draw(epsilons)}")
    if draw(st.booleans()):
        flags.append(f"--phi={draw(angles)!r}")
    if draw(st.booleans()):
        beta1 = draw(angles)
        flags += [f"--beta1={beta1!r}", f"--beta2={beta1 + 90.0!r}"]
    if command == "entropy" and draw(st.booleans()):   # a sweep of at most 8 angles
        start, step = draw(st.floats(0.0, 180.0)), draw(st.floats(0.01, 90.0))
        end = min(180.0, start + 7 * step)
        flags.append(f"--theta={start!r}:{end!r}:{step!r}")
    elif draw(st.booleans()):
        flags.append(f"--theta={draw(st.one_of(st.floats(0.0, 180.0), magnitudes))!r}")
    if command == "xps":
        flags.append(f"--spin={draw(st.sampled_from(['up', 'down']))}")
    return command, config, flags


def hard_cases(test):
    """Every past reproducer through all four commands, with the automatic and
    a fixed kinetic energy."""
    for command in cli.COMMANDS:
        for epsilon in ([], ["--epsilon=6.5"]):
            for config in HARD_CONFIGS + HARD_FILES:
                test = example((command, config, epsilon))(test)
            for flags in HARD_FLAGS:
                test = example((command, {}, epsilon + flags))(test)
    return test


def entropy_bits(theta_deg):
    """h((1 + |cos theta|)/2) in bits, the entropy of either photon or photoelectron
    spin for any model, energy and orthogonal polarization pair."""
    p = (1.0 + abs(math.cos(math.radians(theta_deg)))) / 2.0
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def run_theta(config, flags):
    """The one emission angle of an ``xepecs`` or ``rho`` run, in degrees: the last
    --theta flag, else the config's, else the default of 90."""
    given = [flag.split("=", 1)[1] for flag in flags if flag.startswith("--theta=")]
    return float(given[-1]) if given else float(config.get("theta_deg", 90.0))


def columns(text, fmt):
    """The named number columns of a csv or json output."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    return {name: [float(row[k]) for row in rows[1:]] for k, name in enumerate(rows[0])}


def check_physics(run, text):
    """What every exit-0 output obeys whatever the model: the entropy is
    h((1 + |cos theta|)/2), rho is a pure state whose spin eigenvalues are
    (1 +/- |cos theta|)/2, and the up- over down-spin intensity of every
    coincidence row is sin^2 theta / (1 + cos^2 theta). The tolerances are those
    of 12-digit printing; svg plots carry no values at that precision and are
    not read."""
    command, config, flags = run
    fmt = next((flag.split("=", 1)[1] for flag in flags if flag.startswith("--format=")),
               cli.COMMANDS[command].formats[0])
    if fmt == "svg" or command == "xps":
        return
    data = columns(text, fmt)
    if command == "entropy":
        for theta, s in zip(data["theta_deg"], data["entropy_bits"], strict=True):
            # the printed S and theta are each within PRINTED of theirs, and
            # |dS/dtheta| < 1 bit per radian
            assert abs(s - entropy_bits(theta)) <= PRINTED * (1.0 + math.radians(theta))
        return
    theta = math.radians(run_theta(config, flags))
    if command == "rho":
        rho = np.zeros((4, 4), dtype=complex)
        if fmt == "json":
            assert data["basis"] == ["U1", "U2", "D1", "D2"]
            for i, row in enumerate(data["matrix"]):
                rho[i] = [complex(x["re"], x["im"]) for x in row]
        else:
            for i, j, re_, im in zip(*data.values(), strict=True):
                rho[int(i), int(j)] = complex(re_, im)
        # every entry is at most 1 and printed to PRINTED in each of its two parts,
        # so a sum of n entries errs by at most 2n PRINTED, and an eigenvalue by at
        # most the Frobenius norm of the error, 4 sqrt(2) PRINTED on rho and half
        # that on the 2 x 2 spin matrix
        assert np.max(np.abs(rho - rho.conj().T)) <= 4 * PRINTED
        assert abs(np.trace(rho).real - 1.0) <= 8 * PRINTED
        assert abs(np.linalg.eigvalsh(rho)[-1] - 1.0) <= 6 * PRINTED
        spin = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))   # the polarization traced out
        expected = [(1.0 - abs(math.cos(theta))) / 2.0, (1.0 + abs(math.cos(theta))) / 2.0]
        assert np.max(np.abs(np.linalg.eigvalsh(spin) - expected)) <= 6 * PRINTED
        return
    ratio = math.sin(theta) ** 2 / (1.0 + math.cos(theta) ** 2)
    for u1, u2, d1, d2 in zip(*(data[f"I_{c}"] for c in ("U1", "U2", "D1", "D2")), strict=True):
        if d1 + d2 >= UNDERFLOWED:   # rows that underflowed are not read
            # each sum is within PRINTED of its own, relatively
            assert abs((u1 + u2) / (d1 + d2) - ratio) <= 2.5 * PRINTED * ratio


def run_main(command, config, flags):
    """(exit code, stdout, stderr, output text or None) of one in-process run
    in a fresh directory, every warning an error. A config given as a dict is
    written as JSON, one given as str or bytes verbatim."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        if isinstance(config, dict):
            config = json.dumps(config)
        cfg.write_bytes(config.encode("utf-8") if isinstance(config, str) else config)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = cli.main([command, f"--config={cfg}", f"--out={out}", *flags])
        text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), text


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(runs())
@hard_cases
def test_every_run_keeps_the_contract(run):
    code, stdout, stderr, text = run_main(*run)
    assert code in (0, 2, 3)
    if code == 0:
        assert stderr == "" and text is not None
        assert not NOT_FINITE.search(text)
        assert all(math.isfinite(float(token)) for token in NUMBER.findall(text))
        check_physics(run, text)
    else:
        assert stdout == "" and text is None
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        prefix = "config error: " if code == 2 else "domain error: "
        assert stderr.startswith(prefix)
