"""End-to-end CLI runs: output schemas, determinism, config handling, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xepecs import cli, polarization
from xepecs.entanglement import entropy_sweep
from xepecs.model import DomainError, ModelParams
from xepecs.polarization import EmissionGeometry

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("XEPECS_CONFIG", None)
    # the child runs in cwd, where a relative PYTHONPATH would not resolve
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "xepecs", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestEntropyCommand:
    def test_default_sweep_has_181_rows_peaking_at_90(self, tmp_path):
        result = run_cli(["entropy", "--theta", "0:180:1"], tmp_path)
        assert result.returncode == 0, result.stderr
        header, data = read_csv(tmp_path / "entropy.csv")
        assert header == ["theta_deg", "entropy_bits"]
        assert data.shape == (181, 2)
        peak_row = int(np.argmax(data[:, 1]))
        assert data[peak_row, 0] == 90.0
        assert data[peak_row, 1] == pytest.approx(1.0, abs=1e-10)
        assert data[0, 1] == pytest.approx(0.0, abs=1e-10)
        assert data[-1, 1] == pytest.approx(0.0, abs=1e-10)

    def test_single_angle(self, tmp_path):
        result = run_cli(["entropy", "--theta", "45", "--out", "one.csv"], tmp_path)
        assert result.returncode == 0
        _, data = read_csv(tmp_path / "one.csv")
        assert data.shape == (1, 2)
        assert data[0, 1] == pytest.approx(0.60088, abs=1e-4)


class TestRhoCommand:
    def test_json_pattern_at_90(self, tmp_path):
        result = run_cli(["rho", "--theta", "90", "--phi", "0", "--format", "json"],
                         tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "rho.json").read_text(encoding="utf-8"))
        assert payload["basis"] == ["U1", "U2", "D1", "D2"]
        m = np.array([[cell["re"] + 1j * cell["im"] for cell in row]
                      for row in payload["matrix"]])
        assert m.shape == (4, 4)
        assert m[1, 1].real == pytest.approx(0.5, abs=1e-10)
        assert m[2, 2].real == pytest.approx(0.5, abs=1e-10)
        assert m[1, 2].imag == pytest.approx(-0.5, abs=1e-10)
        assert m[2, 1].imag == pytest.approx(0.5, abs=1e-10)
        # U1 / D2 rows and columns empty
        for k in (0, 3):
            assert np.max(np.abs(m[k, :])) < 1e-10
            assert np.max(np.abs(m[:, k])) < 1e-10
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)

    def test_csv_flattening(self, tmp_path):
        result = run_cli(["rho", "--theta", "45", "--format", "csv"], tmp_path)
        assert result.returncode == 0
        lines = (tmp_path / "rho.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 17

    def test_svg_not_supported(self, tmp_path):
        result = run_cli(["rho", "--format", "svg"], tmp_path)
        assert result.returncode == 2
        assert "format" in result.stderr


class TestXpsCommand:
    def test_j1_line_positions_coincide_between_spins(self, tmp_path):
        for spin in ("up", "down"):
            result = run_cli(["xps", "--spin", spin, "--format", "json",
                              "--out", f"{spin}.json"], tmp_path)
            assert result.returncode == 0, result.stderr
        up = json.loads((tmp_path / "up.json").read_text(encoding="utf-8"))
        down = json.loads((tmp_path / "down.json").read_text(encoding="utf-8"))
        up_j1 = sorted(l["kinetic_energy_eV"] for l in up["lines"] if l["j"] == "1")
        down_j1 = sorted(l["kinetic_energy_eV"] for l in down["lines"] if l["j"] == "1")
        assert len(up_j1) == len(down_j1) == 2
        assert np.allclose(up_j1, down_j1, atol=1e-10)
        assert "intensity_up" in up and "intensity_down" in down

    def test_csv_schema(self, tmp_path):
        result = run_cli(["xps", "--spin", "down"], tmp_path)
        assert result.returncode == 0
        header, data = read_csv(tmp_path / "xps.csv")
        assert header == ["kinetic_energy_eV", "intensity_down"]
        assert data.shape == (601, 2)
        assert data[0, 0] == 5.0 and data[-1, 0] == 8.0
        assert np.all(data[:, 1] >= 0.0)


class TestXepecsCommand:
    def test_csv_schema_and_overlap_at_90(self, tmp_path):
        result = run_cli(["xepecs", "--theta", "90"], tmp_path)
        assert result.returncode == 0, result.stderr
        header, data = read_csv(tmp_path / "xepecs.csv")
        assert header == ["emission_energy_eV", "I_U1", "I_U2", "I_D1", "I_D2"]
        assert data.shape == (1201, 5)
        assert np.max(np.abs(data[:, 2] - data[:, 3])) < 1e-10  # U2 == D1
        assert np.max(data[:, 1]) < 1e-20 and np.max(data[:, 4]) < 1e-20

    def test_ratio_at_45(self, tmp_path):
        result = run_cli(["xepecs", "--theta", "45", "--epsilon", "6.5"], tmp_path)
        assert result.returncode == 0
        _, data = read_csv(tmp_path / "xepecs.csv")
        assert np.max(data[:, 3]) / np.max(data[:, 2]) == pytest.approx(2.0, abs=1e-8)


class TestDeterminismAndConfig:
    def test_repeated_runs_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            result = run_cli(["entropy", "--theta", "0:180:5", "--out", f"{name}.csv"],
                             tmp_path)
            assert result.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for name in ("a", "b"):
            run_cli(["rho", "--theta", "63", "--out", f"{name}.json",
                     "--format", "json"], tmp_path)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_config_file_and_env_fallback(self, tmp_path):
        cfg = {"G": 0.3, "zeta": 0.1, "eps_s": -13.6, "eps_p": -5.0, "Omega": 20.0,
               "Gamma_1s": 0.5, "gamma": 0.4, "theta_deg": 45.0, "phi_deg": 0.0,
               "beta1_deg": 90.0, "beta2_deg": 180.0, "epsilon": 6.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        r1 = run_cli(["entropy", "--theta", "45", "--out", "flag.csv",
                      "--config", str(cfg_path)], tmp_path)
        r2 = run_cli(["entropy", "--theta", "45", "--out", "env.csv"], tmp_path,
                     env_extra={"XEPECS_CONFIG": str(cfg_path)})
        assert r1.returncode == 0 and r2.returncode == 0
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "env.csv").read_bytes()

    def test_defaults_match_built_in_table(self, tmp_path):
        # run with no config at all equals a config repeating the defaults
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"G": 0.3, "zeta": 0.1, "eps_s": -13.6,
                                        "eps_p": -5.0, "Omega": 20.0, "Gamma_1s": 0.5,
                                        "gamma": 0.4}), encoding="utf-8")
        r1 = run_cli(["xps", "--spin", "up", "--out", "bare.csv"], tmp_path)
        r2 = run_cli(["xps", "--spin", "up", "--out", "cfg.csv",
                      "--config", str(cfg_path)], tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0
        assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "cfg.csv").read_bytes()

    def test_unknown_config_key_names_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"Gamma": 0.5}), encoding="utf-8")
        result = run_cli(["xps", "--config", str(cfg_path)], tmp_path)
        assert result.returncode == 2
        assert "Gamma" in result.stderr

    def test_invalid_width_names_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"Gamma_1s": -1.0}), encoding="utf-8")
        result = run_cli(["xps", "--config", str(cfg_path)], tmp_path)
        assert result.returncode == 2
        assert "Gamma_1s" in result.stderr

    def test_bad_theta_rejected(self, tmp_path):
        result = run_cli(["entropy", "--theta", "0:200:1"], tmp_path)
        assert result.returncode == 2
        assert "theta" in result.stderr
        result = run_cli(["rho", "--theta", "0:90:10"], tmp_path)
        assert result.returncode == 2

    def test_degenerate_polarizations_rejected(self, tmp_path):
        result = run_cli(["rho", "--theta", "90", "--beta1", "10", "--beta2", "190"],
                         tmp_path)
        assert result.returncode == 2
        assert "beta" in result.stderr


class TestSvgOutput:
    @pytest.mark.parametrize("command,args", [
        ("xps", ["--spin", "up"]),
        ("xepecs", ["--theta", "45"]),
        ("entropy", ["--theta", "0:180:10"]),
    ])
    def test_svg_written(self, tmp_path, command, args):
        result = run_cli([command, *args, "--format", "svg"], tmp_path)
        assert result.returncode == 0, result.stderr
        text = (tmp_path / f"{command}.svg").read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "polyline" in text


class TestNonFiniteAndOversizedInputs:
    """Rejected at the config boundary with exit 2, naming the field (in process)."""

    @staticmethod
    def main(argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("XEPECS_CONFIG", raising=False)
        code = cli.main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["entropy", "--epsilon", "nan"], "epsilon"),
        (["rho", "--epsilon", "nan"], "epsilon"),
        (["rho", "--phi", "inf"], "phi"),
        (["rho", "--phi", "abc"], "phi"),
        (["entropy", "--beta2=-inf"], "beta2"),
        (["entropy", "--theta", "0:nan:1"], "theta"),
        # a kinetic energy <= 0 is below threshold
        (["entropy", "--theta", "0:180:90", "--epsilon", "-3"], "epsilon"),
        (["rho", "--theta", "90", "--epsilon", "0"], "epsilon"),
    ])
    def test_flags(self, tmp_path, monkeypatch, capsys, argv, field):
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith(f"config error: {field}:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text,field", [
        ('{"G": NaN}', "G"),
        ('{"Omega": Infinity}', "Omega"),
        ('{"phi_deg": -Infinity}', "phi_deg"),
        ('{"epsilon": NaN}', "epsilon"),
        ('{"epsilon": -1}', "epsilon"),
    ])
    def test_config_file_values(self, tmp_path, monkeypatch, capsys, text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code, err = self.main(["rho", "--config", str(cfg)], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith(f"config error: {field}:")

    def test_sweep_one_angle_over_the_cap(self, tmp_path, monkeypatch, capsys):
        step = 2.0 ** -11   # exact in binary, so the angle count is exact too
        assert len(cli._parse_theta(f"0:{(cli.MAX_THETAS - 1) * step!r}:{step!r}")) \
            == cli.MAX_THETAS
        argv = ["entropy", "--theta", f"0:{cli.MAX_THETAS * step!r}:{step!r}"]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("config error: theta:")


class TestDomainAndOutputErrors:
    """Large parameters, bad output paths, non-orthogonal analyzers, format lists (in process)."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)

    @staticmethod
    def config(tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        return str(cfg)

    @pytest.mark.parametrize("text", ['{"G": 1e6}', '{"eps_s": -1e6}', '{"G": 1e12}',
                                      '{"eps_s": -1e10}', '{"zeta": 1e9}'])
    def test_large_finite_parameters_run(self, tmp_path, monkeypatch, capsys, text):
        argv = ["entropy", "--theta", "0:90:90", "--config", self.config(tmp_path, text)]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 0, err
        _, data = read_csv(tmp_path / "entropy.csv")
        assert data[1, 1] == pytest.approx(1.0, abs=1e-10)
        assert data[0, 1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("text,named", [
        ('{"G": 1e308, "zeta": 1e308}', ("G=1e+308", "zeta=1e+308")),
        ('{"zeta": 1.5e308, "G": 0.0}', ("G=0.0", "zeta=1.5e+308", "line positions")),
    ])
    def test_out_of_domain_parameters_exit_3(self, tmp_path, monkeypatch, capsys, text, named):
        for command in ("rho", "xps"):
            argv = [command, "--config", self.config(tmp_path, text)]
            code, err = self.main(argv, tmp_path, monkeypatch, capsys)
            assert code == 3
            assert err.startswith("domain error: ModelParams(")
            assert all(field in err for field in named)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("out", ["missing/rho.json", "."])
    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, capsys, out):
        code, err = self.main(["rho", "--out", out], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("config error: out:")

    def test_non_orthogonal_polarization_pair_rejected(self, tmp_path, monkeypatch, capsys):
        argv = ["entropy", "--theta", "57", "--beta2", "150"]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("config error: beta2:")
        cfg = self.config(tmp_path, '{"beta1_deg": 10.0, "beta2_deg": 80.0}')
        code, err = self.main(["rho", "--config", cfg], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("config error: beta2:")
        # a rotated orthogonal pair is accepted
        argv = ["entropy", "--theta", "57", "--beta1", "30", "--beta2", "120"]
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0

    def test_axes_whose_difference_overflows_exit_2(self, tmp_path, monkeypatch, capsys):
        # beta1 - beta2 = inf in degrees once ended in a math domain error traceback
        argv = ["rho", "--beta1", "1e308", "--beta2=-1e308"]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("config error: beta2:")

    def test_one_orthogonality_tolerance_for_the_library_and_the_command_line(
            self, tmp_path, monkeypatch, capsys):
        # beta1 = 90 and beta2 = 150 degrees: |cos(60 degrees)| = 0.5
        geom = EmissionGeometry.from_degrees(57.0, 0.0, 90.0, 150.0)
        argv = ["entropy", "--theta", "57", "--beta2", "150"]
        with pytest.raises(DomainError, match="not orthogonal"):
            entropy_sweep(ModelParams(), geom, [57.0], 6.5)
        monkeypatch.setattr(polarization, "_ORTHOGONALITY_TOL", 0.51)
        entropy_sweep(ModelParams(), geom, [57.0], 6.5)
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0
        monkeypatch.setattr(polarization, "_ORTHOGONALITY_TOL", 0.49)
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 2

    def test_format_choices_and_defaults_come_from_one_table(self, tmp_path, monkeypatch,
                                                             capsys):
        for command, (_, formats, _) in cli.COMMANDS.items():
            args = cli._build_parser().parse_args([command])
            assert args.format == formats[0]
        assert cli.COMMANDS["rho"].formats[0] == "json"
        assert self.main(["rho", "--theta", "90"], tmp_path, monkeypatch, capsys)[0] == 0
        assert (tmp_path / "rho.json").exists()
        with pytest.raises(SystemExit) as exc:
            cli.main(["rho", "--format", "svg"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestLinesBeyondGridResolution:
    """A line where doubles cannot resolve the 0.005 eV grid step exits 3, naming the inputs."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)
    config = staticmethod(TestDomainAndOutputErrors.config)

    @pytest.mark.parametrize("command,text,named", [
        ("xepecs", '{"eps_p": 1e308}', "eps_p=1e+308"),
        ("xepecs", '{"Omega": 1e308}', "Omega=1e+308"),
        ("xps", '{"Omega": 1e308}', "Omega=1e+308"),
        ("xepecs", '{"epsilon": 1e308}', "epsilon=1e+308"),
    ])
    def test_exit_3_naming_the_inputs(self, tmp_path, monkeypatch, capsys, command, text, named):
        argv = [command, "--config", self.config(tmp_path, text)]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("domain error: ModelParams(") and named in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_fresh_interpreter_prints_one_line(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"Omega": 1e308}', encoding="utf-8")
        result = run_cli(["xps", "--config", "cfg.json"], tmp_path)
        assert result.returncode == 3
        assert result.stderr.startswith("domain error: ModelParams(")
        assert "Omega=1e+308" in result.stderr and result.stderr.count("\n") == 1


class TestLevelEnergyOutsideTheLines:
    """eps_p enters no photoemission line or resonance, so xps, rho and entropy
    write the default output for any finite eps_p."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)
    config = staticmethod(TestDomainAndOutputErrors.config)

    @pytest.mark.parametrize("command", ["xps", "rho", "entropy"])
    def test_output_is_byte_identical_to_the_default(self, tmp_path, monkeypatch, capsys,
                                                     command):
        assert self.main([command, "--out", "default"], tmp_path, monkeypatch, capsys)[0] == 0
        expected = (tmp_path / "default").read_bytes()
        for eps_p in ("1e14", "1e154", "-1e300"):
            argv = [command, "--out", "changed", "--config",
                    self.config(tmp_path, f'{{"eps_p": {eps_p}}}')]
            assert self.main(argv, tmp_path, monkeypatch, capsys) == (0, "")
            assert (tmp_path / "changed").read_bytes() == expected


class TestEntropyAtFixedEpsilon:
    """Exact entropies of the sweep: 1 at 90 degrees, 0 where the pair is separable."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)
    config = staticmethod(TestDomainAndOutputErrors.config)

    def test_huge_eps_p_keeps_the_maximum(self, tmp_path, monkeypatch, capsys):
        # eps_p once entered the resonance through E_g - E_i and rounded the
        # multiplet splitting away: S(90) came out as 0.999999828
        argv = ["entropy", "--theta", "0:90:45", "--epsilon", "6.5",
                "--config", self.config(tmp_path, '{"eps_p": 1e14}')]
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0
        _, data = read_csv(tmp_path / "entropy.csv")
        assert abs(data[0, 1]) <= 1e-12 and abs(data[2, 1] - 1.0) <= 1e-12

    def test_separable_state_writes_0_not_minus_0(self, tmp_path, monkeypatch, capsys):
        argv = ["entropy", "--theta", "0:180:90",
                "--config", self.config(tmp_path, '{"G": 0, "zeta": 0}')]
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0
        text = (tmp_path / "entropy.csv").read_text(encoding="utf-8")
        assert text == "theta_deg,entropy_bits\n0,0\n90,1\n180,0\n"

    @pytest.mark.parametrize("gamma", ["1e-16", "1e-18", "1e-160"])
    def test_narrow_core_hole_on_the_j2_line(self, tmp_path, monkeypatch, capsys, gamma):
        # at the J = 2 line the J = 1 terms of R nearly cancel, and roundoff of the
        # dark J = 2 level, over a narrow width, once set the state: entropy wrote
        # 0 or 0.0006 bits and rho wrote |U2><U2|
        cfg = self.config(tmp_path, f'{{"Gamma_1s": {gamma}}}')
        argv = ["entropy", "--theta", "45", "--epsilon", "6.4", "--config", cfg]
        assert self.main(argv, tmp_path, monkeypatch, capsys) == (0, "")
        text = (tmp_path / "entropy.csv").read_text(encoding="utf-8")
        assert text == "theta_deg,entropy_bits\n45,0.600876036693\n"
        # the width only scales R, so the state is that of the default model
        for out, config in (("narrow.csv", ["--config", cfg]), ("default.csv", [])):
            argv = ["rho", "--theta", "45", "--epsilon", "6.4", "--format", "csv",
                    "--out", out, *config]
            assert self.main(argv, tmp_path, monkeypatch, capsys) == (0, "")
        narrow, default = (read_csv(tmp_path / out)[1] for out in ("narrow.csv", "default.csv"))
        assert np.max(np.abs(narrow - default)) <= 1e-12


class TestHugeWidths:
    """A Lorentzian width whose square overflows, or underflows to 0, exits 3,
    naming the inputs."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)
    config = staticmethod(TestDomainAndOutputErrors.config)

    @pytest.mark.parametrize("command,text,named", [
        ("xps", '{"Gamma_1s": 1e155}', "Gamma_1s=1e+155"),
        ("xepecs", '{"gamma": 1e155}', "gamma=1e+155"),
    ])
    def test_exit_3_naming_the_width(self, tmp_path, monkeypatch, capsys, command, text, named):
        argv = [command, "--config", self.config(tmp_path, text)]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("domain error: ModelParams(") and named in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("text", ['{"Gamma_1s": 1e150}', '{"gamma": 1e150}'])
    def test_wide_but_finite_square_runs(self, tmp_path, monkeypatch, capsys, text):
        argv = ["xepecs", "--config", self.config(tmp_path, text)]
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0

    # a width whose square is 0 once wrote nan (xps) or inf (xepecs) at the grid
    # point on the line, with a RuntimeWarning, and exited 0
    NARROW = [("xps", "Gamma_1s"), ("xepecs", "gamma")]

    @pytest.mark.parametrize("value", ["1e-170", "5e-324"])
    @pytest.mark.parametrize("command,field", NARROW)
    def test_width_whose_square_underflows_exits_3(self, tmp_path, monkeypatch, capsys,
                                                   command, field, value):
        argv = [command, "--theta", "45",
                "--config", self.config(tmp_path, f'{{"{field}": {value}}}')]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("domain error: ModelParams(") and f"{field}={value}" in err
        assert "underflows its square" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command,field", NARROW)
    def test_narrow_width_with_subnormal_square_runs(self, tmp_path, monkeypatch, capsys,
                                                     command, field):
        argv = [command, "--theta", "45",
                "--config", self.config(tmp_path, f'{{"{field}": 1e-160}}')]
        assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0
        _, data = read_csv(tmp_path / f"{command}.csv")
        assert np.all(np.isfinite(data))


class TestUndefinedStateNamesTheInputs:
    """Amplitudes that underflow to zero exit 3 with the parameter set and epsilon named."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)
    config = staticmethod(TestDomainAndOutputErrors.config)

    @pytest.mark.parametrize("command", ["rho", "entropy"])
    def test_all_amplitudes_vanish(self, tmp_path, monkeypatch, capsys, command):
        for omega in ("1e+308", "1e+200"):
            argv = [command, "--epsilon", "6.5",
                    "--config", self.config(tmp_path, f'{{"Omega": {omega}}}')]
            code, err = self.main(argv, tmp_path, monkeypatch, capsys)
            assert code == 3
            assert err.startswith("domain error: ModelParams(")
            assert f"Omega={omega}" in err and "epsilon=6.5" in err and "vanish" in err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["xepecs", "rho", "entropy"])
    def test_squared_amplitudes_overflow(self, tmp_path, monkeypatch, capsys, command):
        # a 1e-160 eV core hole on a J = 1 line: R is about 1e159, and |R|^2 is not
        # finite. xepecs once ended in an OverflowError (exit 1), and rho and
        # entropy printed a numpy overflow warning before their exit 3
        argv = [command, "--theta", "45", "--epsilon", "6.507603367391252",
                "--config", self.config(tmp_path, '{"Gamma_1s": 1e-160}')]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("domain error: ModelParams(") and err.count("\n") == 1
        assert "Gamma_1s=1e-160" in err and "epsilon=6.507603367391252" in err
        assert "not finite" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["xepecs", "rho", "entropy"])
    def test_resonance_denominator_beyond_the_float_range(self, tmp_path, monkeypatch, capsys,
                                                          command):
        # the J = 1 lines near -8e307 eV and epsilon = 1.7e308: the denominators
        # overflow, which once ended all three in a numpy overflow warning
        argv = [command, "--theta", "45", "--epsilon", "1.7e308",
                "--config", self.config(tmp_path, '{"eps_s": -8e307}')]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("domain error: ModelParams(") and err.count("\n") == 1
        assert "eps_s=-8e+307" in err and "epsilon=1.7e+308" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestSweepEnd:
    main = staticmethod(TestNonFiniteAndOversizedInputs.main)
    config = staticmethod(TestDomainAndOutputErrors.config)

    def test_last_angle_does_not_overshoot_end(self, tmp_path, monkeypatch, capsys):
        # 0.3 + 1797 * 0.1 rounds to 180.00000000000003, once outside [0, 180]
        code, err = self.main(["entropy", "--theta", "0.3:180:0.1"], tmp_path, monkeypatch, capsys)
        assert code == 0, err
        _, data = read_csv(tmp_path / "entropy.csv")
        assert data.shape == (1798, 2)
        assert data[-1, 0] == 180.0 and abs(data[-1, 1]) <= 1e-12

    def test_overflowing_ground_energy_exits_3(self, tmp_path, monkeypatch, capsys):
        argv = ["xepecs", "--theta", "45", "--epsilon", "6.5",
                "--config", self.config(tmp_path, '{"eps_s": 1e308}')]
        code, err = self.main(argv, tmp_path, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("domain error: ModelParams(") and "eps_s=1e+308" in err


class TestDenseSweep:
    """The 180,001-angle sweep: every row on the (1 +/- |cos theta|)/2 oracle, twice alike."""

    main = staticmethod(TestNonFiniteAndOversizedInputs.main)

    def test_every_row_matches_the_oracle_and_repeats(self, tmp_path, monkeypatch, capsys):
        texts = []
        for out in ("a.csv", "b.csv"):
            argv = ["entropy", "--theta", "0:180:0.001", "--out", out]
            assert self.main(argv, tmp_path, monkeypatch, capsys)[0] == 0
            texts.append((tmp_path / out).read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        assert texts[0].count("\n") == 180_002
        header, body = texts[0].split("\n", 1)
        assert header == "theta_deg,entropy_bits"
        data = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(-1, 2)
        assert data[0, 0] == 0.0 and data[-1, 0] == 180.0
        c = np.abs(np.cos(np.radians(data[:, 0])))
        x = np.stack([(1.0 + c) / 2.0, (1.0 - c) / 2.0])
        logs = np.log2(x, out=np.zeros_like(x), where=x > 0.0)
        assert np.max(np.abs(data[:, 1] + np.sum(x * logs, axis=0))) <= 1e-12
