"""The operator layer's single homes: CG-derived constants, the closed 1s shell,
one final-state energy per parameter set, and dict accumulation."""

import math

import pytest

from xepecs import amplitudes, cli, model, spectra
from xepecs.amplitudes import CHANNELS, _EMISSION_VERTEX, calculator
from xepecs.angular import cg
from xepecs.entanglement import DomainError
from xepecs.fockspace import Spin, basis_vector, combine, inner
from xepecs.model import (
    ModelParams,
    SubspaceLabel,
    closed_shell,
    final_state_energy,
    initial_state,
    subspace,
)
from xepecs.polarization import EmissionGeometry

import reference


class TestConstantsFromClebschGordan:
    def test_initial_state_coefficients_are_cg_values(self):
        g, _ = initial_state(ModelParams())
        # basis order: (1s^2 2p[+1] down, 1s^2 2p[0] up)
        comps = [inner(basis_vector(b), g) for b in subspace(SubspaceLabel.INITIAL).basis]
        assert comps == [cg(1, 1, 0.5, -0.5, 0.5, 0.5), cg(1, 0, 0.5, 0.5, 0.5, 0.5)]
        assert comps == pytest.approx([math.sqrt(2.0 / 3.0), -math.sqrt(1.0 / 3.0)], abs=1e-15)

    def test_emission_vertex_table_is_cg_values(self):
        assert _EMISSION_VERTEX == {m: -cg(1, m, 1, -m, 0, 0) for m in (1, 0, -1)}
        for m, d in _EMISSION_VERTEX.items():
            assert d == pytest.approx((-1) ** m / math.sqrt(3.0), abs=1e-15)


class TestClosedShell:
    def test_final_states_are_built_on_the_closed_shell(self):
        # the register's final states are the closed shell with one photoelectron
        # and one emitted photon, and the package's decay ends in the closed shell
        (closed, amplitude), = closed_shell().terms()
        assert (closed, amplitude) == (model._CLOSED_SHELL, 1.0)
        assert list(model._configuration((2, 0))) == [closed]
        for sigma in Spin:
            for lam in (1, 2):
                photons = tuple(int(k == lam) for k in range(3))
                key = (closed.orbitals, 1 << (reference.PE_MODE[sigma] - 8), photons)
                assert dict(reference.final_state(sigma, lam).terms()) == {key: 1.0}

    def test_closed_shell_energy(self):
        params = ModelParams(eps_s=-11.0, eps_p=-4.0, G=0.7, zeta=0.3)
        assert final_state_energy(params) == 2 * params.eps_s
        assert spectra.final_state_energy is model.final_state_energy


class TestFinalStateEnergyOncePerParams:
    def test_four_xepecs_channels_share_one_evaluation(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(params):
            calls.append(params)
            return final_state_energy(params)

        monkeypatch.setattr(amplitudes, "final_state_energy", counted)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("XEPECS_CONFIG", raising=False)
        calculator.cache_clear()
        assert cli.main(["xepecs", "--theta", "45", "--epsilon", "6.5"]) == 0
        assert calls == [ModelParams()]

        geom = EmissionGeometry.from_degrees(60.0)
        params = ModelParams(G=0.25)
        for channel in CHANNELS:
            spectra.xepecs_spectrum(params, geom, 6.5, channel)
        assert calls == [ModelParams(), params]
        assert calculator(params).E_f == final_state_energy(params)
        calculator.cache_clear()


class TestCombine:
    def test_accumulates_and_drops_cancelled_states(self):
        a = basis_vector(subspace(SubspaceLabel.M0).basis[0])
        b = basis_vector(subspace(SubspaceLabel.M0).basis[1])
        v = combine([(2.0, a), (1.0, b), (-2.0, a)])
        assert dict(v.terms()) == dict(b.terms())
        assert len(combine([])) == 0


def test_domain_error_is_one_value_error_class():
    assert DomainError is model.DomainError
    assert issubclass(DomainError, ValueError)
