"""README commands against golden CSV/JSON outputs in tests/data/golden.

The goldens were written by the per-geometry amplitude route, before angle
sweeps became one array contraction. Byte identity with them is not
reachable: the contraction sums the same terms in another order, so entries
that the selection rules make zero come out as different ~1e-17 rounding
noise, and the 12-digit print of that noise differs (as do entropies within
a few degrees of 0 and 180, which are differences of nearly equal numbers).
Every printed number must therefore match to 1e-12 absolute, every other
token exactly, and two runs of the current code must be byte-identical.
"""

import json
import math
from pathlib import Path

import pytest

from xepecs import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
TOL = 1e-12

COMMANDS = {
    "rho_theta90": ["rho", "--theta", "90", "--phi", "0"],
    "xps_up": ["xps", "--spin", "up"],
    "xps_down": ["xps", "--spin", "down"],
    "xepecs_theta45_eps6.5": ["xepecs", "--theta", "45", "--epsilon", "6.5"],
    "entropy_0_180_1": ["entropy", "--theta", "0:180:1"],
}


def _run(tmp_path, argv, out_name) -> bytes:
    out = tmp_path / out_name
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _assert_close(got, expected, where="$"):
    if isinstance(expected, float) or isinstance(got, float):
        assert math.isclose(got, expected, rel_tol=0.0, abs_tol=TOL), \
            f"{where}: {got!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert list(got) == list(expected), where
        for key in expected:
            _assert_close(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            _assert_close(g, e, f"{where}[{i}]")
    else:
        assert got == expected, f"{where}: {got!r} != {expected!r}"


def _csv_tokens(text: str) -> list:
    def token(cell):
        try:
            return float(cell)
        except ValueError:
            return cell

    return [[token(c) for c in line.split(",")] for line in text.split("\n")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_matches_golden_and_repeats_byte_for_byte(tmp_path, monkeypatch, name, fmt):
    monkeypatch.delenv("XEPECS_CONFIG", raising=False)
    argv = [*COMMANDS[name], "--format", fmt]
    first = _run(tmp_path, argv, f"a.{fmt}")
    assert _run(tmp_path, argv, f"b.{fmt}") == first

    text = first.decode("utf-8")
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    if fmt == "json":
        _assert_close(json.loads(text), json.loads(expected))
    else:
        _assert_close(_csv_tokens(text), _csv_tokens(expected))
