"""The operator layer's single homes: CG-derived constants, the closed 1s shell,
and dict accumulation."""

import math

import pytest

from xepecs import DomainError, amplitudes, cli, model
from xepecs.amplitudes import _EMISSION_VERTEX
from xepecs.angular import cg
from xepecs.fockspace import FockState, Shell, Spin
from xepecs.model import ModelParams, SubspaceLabel, subspace

import reference
from reference import basis_vector, closed_shell, combine, initial_state, inner


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

    def test_wigner_eckart_ratio_is_a_cg_ratio(self):
        # A(up, lambda) / alpha_0 over A(down, lambda) / alpha_-1, for every model
        assert amplitudes.KAPPA == -cg(0.5, 0.5, 1, 0, 0.5, 0.5) / cg(0.5, -0.5, 1, 1, 0.5, 0.5)
        assert amplitudes.KAPPA == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


class TestClosedShell:
    def test_final_states_are_built_on_the_closed_shell(self):
        # the register's final states are the closed shell with one photoelectron
        # and one emitted photon, and the package's decay ends in the closed shell
        (closed, amplitude), = closed_shell().terms()
        assert (closed, amplitude) == (FockState(model._SHELL_MASK[Shell.S1S]), 1.0)
        assert list(model._configuration((2, 0))) == [closed]
        for sigma in Spin:
            for lam in (1, 2):
                photons = tuple(int(k == lam) for k in range(3))
                key = (closed.orbitals, 1 << (reference.PE_MODE[sigma] - 8), photons)
                assert dict(reference.final_state(sigma, lam).terms()) == {key: 1.0}


class TestCombine:
    def test_accumulates_and_drops_cancelled_states(self):
        a = basis_vector(subspace(SubspaceLabel.M0).basis[0])
        b = basis_vector(subspace(SubspaceLabel.M0).basis[1])
        v = combine([(2.0, a), (1.0, b), (-2.0, a)])
        assert dict(v.terms()) == dict(b.terms())
        assert len(combine([])) == 0


def test_domain_error_is_one_value_error_class():
    assert DomainError is model.DomainError is cli.DomainError
    assert issubclass(DomainError, ValueError)
