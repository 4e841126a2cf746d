"""Tests for the pure-partner construction via mixture extension."""

import numpy as np
import pytest

from rdmkit import compat
from rdmkit.construct import (TheoremViolation, _two_level_restriction,
                              eigen2, pure_partner, pure_partner_details)
from rdmkit.ghz import GhzParams, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, ValidationError, haar_random_state,
                           hermitian_eig)
from rdmkit.rdm import partial_trace_matrix, ptr_tuple, rdm_max_distance

INV_SQRT2 = 1 / np.sqrt(2)


def ghz_pair(n, a, b, z):
    psi = make_ghz(n, a, b)
    omega = ghz_family(GhzParams(n, a, b), z)
    return psi, omega


def mixture(psi, omega, a):
    """(1-a)|psi><psi| + a*omega, PSD or not."""
    return (1.0 - a) * psi.projector().mat + a * omega.mat


def restriction_w(psi, omega):
    """W, omega in the {psi, psi2} basis the construction uses."""
    return _two_level_restriction(psi, omega, hermitian_eig(omega.mat))[1]


def low_eigenvalue(w, a):
    """The low eigenvalue of R(a) = (1-a) diag(1, 0) + a W, by eigen2."""
    r = (1.0 - a) * np.diag([1.0, 0.0]) + a * w
    return eigen2(0.5 * float((r[0, 0] - r[1, 1]).real), complex(r[1, 0]))[0]


# ------------------------------------------------------------ the mixture line

def test_mixture_at_a2_reaches_the_partner():
    psi, omega = ghz_pair(3, INV_SQRT2, INV_SQRT2, 0.0)
    m = mixture(psi, omega, 2.0)
    partner = make_ghz(3, INV_SQRT2, -INV_SQRT2).projector()
    assert np.linalg.norm(m - partner.mat) <= 1e-12
    assert abs(np.linalg.eigvalsh(m)[0]) <= 1e-12


def test_mixture_keeps_rdms_even_outside_psd_range():
    psi, omega = ghz_pair(3, np.sqrt(0.7), np.sqrt(0.3), 0.2)
    parts = ptr_tuple(psi.projector()).parts
    for a in (-1.0, 0.5, 3.0):
        m = mixture(psi, omega, a)
        # compare marginals directly on the raw matrix
        for j in range(1, 4):
            d = np.linalg.norm(partial_trace_matrix(m, 3, {j})
                               - parts[j - 1].mat)
            assert d <= 1e-9


# --------------------------------------------------------------------- eigen2

def test_eigen2_examples():
    assert eigen2(0.0, 0.0) == (0.5, 0.5)
    lo, hi = eigen2(0.5, 0.0)
    assert abs(lo) < 1e-15 and abs(hi - 1) < 1e-15
    lo, hi = eigen2(0.3, 0.4)
    assert abs(lo) < 1e-15 and abs(hi - 1) < 1e-15


def test_eigen2_matches_dense_solver():
    rng = np.random.default_rng(14)
    for _ in range(200):
        z = rng.uniform(-1, 1)
        u = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        m = np.array([[0.5 + z, np.conj(u)], [u, 0.5 - z]])
        dec = hermitian_eig(m)
        lo, hi = eigen2(z, u)
        assert abs(lo - dec.eigenvalues[0]) <= 1e-12
        assert abs(hi - dec.eigenvalues[1]) <= 1e-12


# ------------------------------------------------------- two_level_restriction

def test_restriction_basis_and_weights():
    psi, omega = ghz_pair(3, np.sqrt(0.8), np.sqrt(0.2), 0.4)
    psi2, w = _two_level_restriction(psi, omega, hermitian_eig(omega.mat))
    assert abs(np.vdot(psi.amps, psi2)) <= 1e-10
    # low eigenvalue is positive at a=1 (omega is a legitimate mixture)
    assert low_eigenvalue(w, 1.0) > 0


def test_restriction_rejects_outside_span():
    psi = haar_random_state(3, 3)
    omega = ghz_family(GhzParams(3, INV_SQRT2, INV_SQRT2), 0.0)
    with pytest.raises(TheoremViolation):
        restriction_w(psi, omega)


# --------------------------------------------------------------- pure_partner

def test_partner_symmetric_ghz_z0():
    psi, omega = ghz_pair(3, INV_SQRT2, INV_SQRT2, 0.0)
    res = pure_partner_details(psi, omega)
    expected = make_ghz(3, INV_SQRT2, -INV_SQRT2)
    phase = np.vdot(res.partner.amps, expected.amps)
    assert abs(abs(phase) - 1) < 1e-9
    assert abs(res.a_star - 2.0) <= 1e-9
    assert res.overlap <= 1e-9


def test_partner_skew_ghz_z0():
    psi, omega = ghz_pair(3, np.sqrt(0.8), np.sqrt(0.2), 0.0)
    res = pure_partner_details(psi, omega)
    expected = make_ghz(3, np.sqrt(0.8), -np.sqrt(0.2))
    phase = np.vdot(res.partner.amps, expected.amps)
    assert abs(abs(phase) - 1) < 1e-8
    assert abs(res.overlap - 0.6) <= 1e-8  # | |a|^2 - |b|^2 |


def test_partner_z_half_lands_on_disk_boundary():
    psi, omega = ghz_pair(3, INV_SQRT2, INV_SQRT2, 0.5)
    res = pure_partner_details(psi, omega)
    p = res.partner
    # the partner is a family member with |z'| = 1, z' != 1
    z = p.amps[0] * np.conj(p.amps[7]) / (INV_SQRT2 * INV_SQRT2)
    assert abs(abs(z) - 1) <= 1e-8
    assert abs(z - 1) > 1e-3
    assert rdm_max_distance(ptr_tuple(p.projector()),
                            ptr_tuple(psi.projector())) <= 1e-10


def test_partner_low_eigenvalue_crossing():
    psi, omega = ghz_pair(3, np.sqrt(0.6), np.sqrt(0.4), 0.3 + 0.2j)
    res = pure_partner_details(psi, omega)
    w = restriction_w(psi, omega)
    assert low_eigenvalue(w, 1.0) > 0
    assert abs(low_eigenvalue(w, res.a_star)) <= 1e-10


def test_partner_closed_form_roots_complex_phase():
    # det R(a) = a w11 - a^2 (w11^2 + |w01|^2): roots 0 and a*
    psi, omega = ghz_pair(4, np.sqrt(0.35), np.sqrt(0.65) * np.exp(0.9j),
                          0.6 * np.exp(-2.1j))
    res = pure_partner_details(psi, omega)
    w = restriction_w(psi, omega)
    assert res.a_minus == 0.0 and np.copysign(1.0, res.a_minus) == 1.0
    assert res.a_star > 1.0
    assert abs(low_eigenvalue(w, res.a_star)) <= 1e-10
    expected = w[1, 1].real / (w[1, 1].real ** 2 + abs(w[0, 1]) ** 2)
    assert abs(res.a_star - expected) <= 1e-12 * expected


def test_partner_mixture_closure():
    psi, omega = ghz_pair(4, np.sqrt(0.7), np.sqrt(0.3), -0.4)
    res = pure_partner_details(psi, omega)
    assert 0 < res.mixture_weight < 1
    assert res.mixture_residual <= 1e-7


def test_partner_round_trip_grid():
    rng = np.random.default_rng(15)
    for _ in range(12):
        th = rng.uniform(0.2, np.pi / 2 - 0.2)
        a, b = np.cos(th), np.sin(th)
        z = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.4, 0.4)
        psi, omega = ghz_pair(3, a, b, z)
        partner = pure_partner(psi, omega)
        assert np.linalg.norm(partner.projector().mat
                              - psi.projector().mat) > 0.1
        assert rdm_max_distance(ptr_tuple(partner.projector()),
                                ptr_tuple(psi.projector())) <= 1e-8


def test_partner_rejects_pure_omega():
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    with pytest.raises(ValidationError):
        pure_partner(psi, psi.projector())


def test_partner_errors_keep_their_order_and_messages(monkeypatch):
    # purity first, then the RDM check naming the qubit, then the rank
    a, b = np.sqrt(0.7), np.sqrt(0.3)
    psi, omega = ghz_pair(3, a, b, 0.4)
    low = hermitian_eig(omega.mat).eigenvectors[:, :1]
    rank3 = DensityMatrix(3, 0.9 * omega.mat + 0.1 * low @ low.conj().T)
    cases = [
        (psi.projector(), ValidationError,
         "omega is pure; need a mixed partner"),
        (ghz_family(GhzParams(3, b, a), 0.4), ValidationError,
         "RDM mismatch at qubit 1: distance 5.657e-01"),
        (rank3, ValidationError,
         "RDM mismatch at qubit 1: distance 1.257e-01"),
    ]
    for omega_bad, cls, msg in cases:
        with pytest.raises(cls) as info:
            pure_partner_details(psi, omega_bad)
        assert type(info.value) is cls and str(info.value) == msg
    monkeypatch.setattr(compat, "require_equal_rdms", lambda x, y: None)
    with pytest.raises(TheoremViolation,
                       match=r"^omega has rank 3 > 2 despite matching RDMs$"):
        pure_partner_details(psi, rank3)
