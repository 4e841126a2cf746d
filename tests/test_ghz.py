"""Tests for generalized GHZ construction, the compatible family, and the
GHZ-type detector."""

import numpy as np
import pytest

from rdmkit import ghz
from rdmkit.ghz import (GhzParams, detect_ghz_type, ghz_family, make_ghz)
from rdmkit.qstate import (PureState, ValidationError, apply_local_unitaries,
                           haar_random_state, random_local_unitaries)
from rdmkit.rdm import ptr_tuple, rdm_max_distance

INV_SQRT2 = 1 / np.sqrt(2)
W3 = np.zeros(8, dtype=complex)
W3[[1, 2, 4]] = 1 / np.sqrt(3)
BELL = np.array([1, 0, 0, 1], dtype=complex) * INV_SQRT2


# ------------------------------------------------------------------ make_ghz

def test_make_ghz_amplitudes():
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    expected = np.zeros(8)
    expected[0] = expected[7] = INV_SQRT2
    assert np.allclose(psi.amps, expected)


def test_make_ghz_rejects_vanishing_amplitude():
    with pytest.raises(ValidationError):
        make_ghz(3, 1.0, 0.0)


def test_make_ghz_rejects_unnormalized():
    with pytest.raises(ValidationError):
        make_ghz(3, 1.0, 1.0)


@pytest.mark.parametrize("a, b", [(np.nan, 0.6), (0.8, np.nan),
                                  (np.inf, 0.6), (0.8, complex(0.6, np.nan))])
def test_ghz_params_reject_non_finite_amplitudes(a, b):
    with pytest.raises(ValidationError, match="expected 1"):
        GhzParams(3, a, b)


def test_make_ghz_complex_amplitudes():
    psi = make_ghz(4, np.sqrt(0.8), np.sqrt(0.2) * 1j)
    assert abs(np.linalg.norm(psi.amps) - 1) < 1e-12
    assert np.count_nonzero(psi.amps) == 2


# ---------------------------------------------------------------- ghz_family

def test_family_z1_is_the_ghz_projector():
    params = GhzParams(3, np.sqrt(0.7), np.sqrt(0.3))
    member = ghz_family(params, 1.0)
    proj = make_ghz(3, np.sqrt(0.7), np.sqrt(0.3)).projector()
    assert np.linalg.norm(member.mat - proj.mat) <= 1e-12


def test_family_z0_is_diagonal_rank2():
    params = GhzParams(3, np.sqrt(0.7), np.sqrt(0.3))
    member = ghz_family(params, 0.0)
    vals = np.linalg.eigvalsh(member.mat)
    assert np.allclose(sorted(vals)[-2:], [0.3, 0.7], atol=1e-12)
    assert np.allclose(member.mat, np.diag(np.diag(member.mat)))


def test_family_zminus1_is_sign_flipped_partner():
    params = GhzParams(3, np.sqrt(0.7), np.sqrt(0.3))
    member = ghz_family(params, -1.0)
    partner = make_ghz(3, np.sqrt(0.7), -np.sqrt(0.3)).projector()
    assert np.linalg.norm(member.mat - partner.mat) <= 1e-12


def test_family_rejects_z_outside_disk():
    params = GhzParams(3, INV_SQRT2, INV_SQRT2)
    with pytest.raises(ValidationError):
        ghz_family(params, 1.2)


def test_family_members_share_rdm_tuple():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        th = rng.uniform(0.1, np.pi / 2 - 0.1)
        params = GhzParams(n, np.cos(th),
                           np.sin(th) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        base = ptr_tuple(ghz_family(params, 1.0))
        for _ in range(50):
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            if abs(z) > 1:
                z /= abs(z)
            t = ptr_tuple(ghz_family(params, z))
            assert rdm_max_distance(t, base) <= 1e-10


def test_family_pure_iff_unit_z():
    params = GhzParams(3, np.sqrt(0.6), np.sqrt(0.4))
    for z, pure in ((1.0, True), (np.exp(0.3j), True), (0.5, False),
                    (0.0, False)):
        m = ghz_family(params, z).mat
        purity = float(np.real(np.trace(m @ m)))
        assert (abs(purity - 1.0) < 1e-10) == pure


# ------------------------------------------------------------ detect_ghz_type

def test_detect_rotated_gapped_ghz_recovers_magnitudes():
    psi = apply_local_unitaries(make_ghz(3, np.sqrt(0.8), np.sqrt(0.2)),
                                random_local_unitaries(3, 17))
    cert = detect_ghz_type(psi)
    assert cert.is_ghz and not cert.inconclusive
    assert abs(abs(cert.params.a) - np.sqrt(0.8)) < 1e-8
    assert abs(abs(cert.params.b) - np.sqrt(0.2)) < 1e-8


def test_detect_rotated_degenerate_ghz():
    # q0 = q1 exercises the subspace-search branch
    psi = apply_local_unitaries(make_ghz(3, INV_SQRT2, INV_SQRT2),
                                random_local_unitaries(3, 7))
    cert = detect_ghz_type(psi)
    assert cert.is_ghz and not cert.inconclusive
    assert cert.residual <= 1e-8
    assert abs(abs(cert.params.a) - INV_SQRT2) < 1e-7


@pytest.mark.parametrize("amp, seed", [(np.sqrt(0.5), 109),
                                       (np.sqrt(0.5), 151),
                                       (np.sqrt(0.5), 166),
                                       (np.sqrt(0.5), 636),
                                       (INV_SQRT2, 338)],
                         ids=["109", "151", "166", "636", "inv-sqrt2-338"])
def test_detect_rotated_degenerate_ghz_at_former_search_misses(amp, seed):
    # a numeric grid-and-pattern search for the product vector called
    # each of these "not GHZ"
    psi = apply_local_unitaries(make_ghz(3, amp, amp),
                                random_local_unitaries(3, seed))
    cert = detect_ghz_type(psi)
    assert "min_nonproductness" in cert.diagnostics  # degenerate branch
    assert cert.is_ghz and not cert.inconclusive
    assert abs(abs(cert.params.a) - INV_SQRT2) < 1e-8
    assert abs(abs(cert.params.b) - INV_SQRT2) < 1e-8


def test_detect_n2_degenerate_ghz():
    # one rest qubit: every vector of the span is a product
    for seed in range(5):
        psi = apply_local_unitaries(make_ghz(2, INV_SQRT2, INV_SQRT2),
                                    random_local_unitaries(2, seed))
        cert = detect_ghz_type(psi)
        assert "min_nonproductness" in cert.diagnostics
        assert cert.is_ghz and not cert.inconclusive
        assert abs(abs(cert.params.a) - INV_SQRT2) < 1e-8


def orthonormal_pair(n_qubits, rng):
    """Two random orthonormal n_qubits-qubit vectors, as rows."""
    d = 2**n_qubits
    g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    return np.linalg.qr(g)[0].T


@pytest.mark.parametrize("n", [3, 4, 5])
def test_detect_degenerate_non_ghz_is_a_clean_no(n):
    # (|0> chi0 + |1> chi1) / sqrt(2) has q0 = q1 but, for generic chi,
    # no product vector in span(chi0, chi1)
    rng = np.random.default_rng(70 + n)
    for _ in range(20):
        chi = orthonormal_pair(n - 1, rng)
        cert = detect_ghz_type(PureState(n, chi.reshape(-1) / np.sqrt(2)))
        assert "min_nonproductness" in cert.diagnostics
        assert not cert.is_ghz and not cert.inconclusive


def test_minor_gram_is_half_the_nonproductness():
    # v^H G v with v = (c0^2, c0 c1, c1^2) is the sum of |minor|^2 over all
    # one-qubit cuts of w = c0 chi0 + c1 chi1
    rng = np.random.default_rng(5)
    for n_rest in (2, 3, 4):
        chi = orthonormal_pair(n_rest, rng)
        gram = ghz._minor_gram(chi, n_rest)
        assert np.allclose(gram, gram.conj().T, atol=1e-14)
        for _ in range(5):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c /= np.linalg.norm(c)
            v = np.array([c[0] ** 2, c[0] * c[1], c[1] ** 2])
            w = c[0] * chi[0] + c[1] * chi[1]
            assert abs(np.vdot(v, gram @ v)
                       - ghz._nonproductness(w, n_rest) / 2) < 1e-12


@pytest.mark.parametrize("r", [(1, -3, 2), (0, 1, 0), (1, 0, 0), (0, 0, 1),
                               (1j, 0.5, -2 + 1j)])
def test_quadratic_roots(r):
    r = np.asarray(r, dtype=complex)
    roots = ghz._quadratic_roots(r)
    assert roots
    for c in roots:
        assert abs(np.linalg.norm(c) - 1) < 1e-14
        assert abs(r[0] * c[0] ** 2 + r[1] * c[0] * c[1]
                   + r[2] * c[1] ** 2) < 1e-14
    if r[1] != 0 or r[0] * r[2] != 0:  # two distinct roots
        assert len(roots) == 2 and abs(np.vdot(*roots)) < 1 - 1e-6


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, 1e-4, 1e9])
def test_detect_rejects_bad_tol(tol):
    with pytest.raises(ValidationError, match="tol"):
        detect_ghz_type(make_ghz(3, INV_SQRT2, INV_SQRT2), tol)


def test_detect_w_state_false():
    cert = detect_ghz_type(PureState(3, W3))
    assert not cert.is_ghz and not cert.inconclusive


def test_detect_product_state_false():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    cert = detect_ghz_type(PureState(3, amps))
    assert not cert.is_ghz and not cert.inconclusive


def test_detect_haar_states_false():
    for n in (3, 4):
        for seed in range(100):
            cert = detect_ghz_type(haar_random_state(n, 900 + seed))
            assert not cert.is_ghz, (n, seed)
            assert not cert.inconclusive, (n, seed)


def test_certificate_soundness():
    # reassembling a * (x)u_i + b * (x)v_i reproduces psi up to global phase
    for seed in (3, 11, 29):
        psi = apply_local_unitaries(make_ghz(4, np.sqrt(0.6), np.sqrt(0.4)),
                                    random_local_unitaries(4, seed))
        cert = detect_ghz_type(psi)
        assert cert.is_ghz
        ut = np.ones(1, dtype=complex)
        vt = np.ones(1, dtype=complex)
        for (u, v) in cert.local_bases:
            assert abs(np.vdot(u, v)) <= 1e-9
            ut = np.kron(ut, u)
            vt = np.kron(vt, v)
        rebuilt = cert.params.a * ut + cert.params.b * vt
        phase = np.vdot(rebuilt, psi.amps)
        phase /= abs(phase)
        assert np.linalg.norm(phase * rebuilt - psi.amps) <= max(
            cert.residual, 1e-9)


def test_detect_lu_invariance_small():
    base = make_ghz(3, np.sqrt(0.75), np.sqrt(0.25))
    ref = detect_ghz_type(base)
    for seed in range(20):
        rot = apply_local_unitaries(base, random_local_unitaries(3, seed))
        cert = detect_ghz_type(rot)
        assert cert.is_ghz == ref.is_ghz
        assert abs(abs(cert.params.a) - abs(ref.params.a)) < 1e-8
        assert abs(abs(cert.params.b) - abs(ref.params.b)) < 1e-8


def test_detect_n2_entangled_state_is_ghz_type():
    # at n=2 every entangled state is a generalized GHZ state in its
    # Schmidt basis
    cert = detect_ghz_type(haar_random_state(2, 1))
    assert cert.is_ghz
    s = np.linalg.svd(haar_random_state(2, 1).amps.reshape(2, 2),
                      compute_uv=False)
    assert abs(abs(cert.params.a) - max(s)) < 1e-8
