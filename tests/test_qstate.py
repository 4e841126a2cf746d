"""Tests for core state types, multi-index arithmetic, and eigensolving."""

import numpy as np
import pytest

from rdmkit.qstate import (DensityMatrix, MultiIndex, PauliWord, PureState,
                           ValidationError, apply_local_unitaries,
                           haar_random_state, hermitian_eig, numeric_rank,
                           psd_segment, random_local_unitaries)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------- MultiIndex

def test_multiindex_roundtrip_flat():
    for n in range(1, 5):
        for k in range(2**n):
            mi = MultiIndex.from_flat(k, n)
            assert mi.flat() == k
            assert len(mi.bits) == n


def test_multiindex_qubit1_is_most_significant():
    mi = MultiIndex.from_flat(0b100, 3)
    assert mi.bits == (1, 0, 0)
    assert mi.slot(1) == 1
    assert mi.slot(3) == 0


def test_multiindex_complement_involution_exhaustive():
    # complementing slot j twice returns the original, all n <= 6
    for n in range(1, 7):
        for k in range(2**n):
            mi = MultiIndex.from_flat(k, n)
            for j in range(1, n + 1):
                assert mi.complement(j).complement(j) == mi
                assert mi.complement(j).slot(j) == 1 - mi.slot(j)


def test_multiindex_bad_bits_rejected():
    with pytest.raises(ValidationError):
        MultiIndex(2, (0, 2))
    with pytest.raises(ValidationError):
        MultiIndex(3, (0, 1))


# ----------------------------------------------------------------- PureState

def test_purestate_requires_normalization():
    PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        PureState(1, np.array([1.0, 1.0]))


def test_purestate_wrong_length_rejected():
    with pytest.raises(ValidationError):
        PureState(2, np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_purestate_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        PureState(1, np.array([1.0, bad]))


def test_projector_and_overlap():
    psi = PureState(1, np.array([1.0, 1.0]) / np.sqrt(2))
    proj = psi.projector()
    assert np.allclose(proj.mat, np.full((2, 2), 0.5))
    phi = PureState(1, np.array([1.0, -1.0]) / np.sqrt(2))
    assert abs(psi.overlap(phi)) < 1e-12
    assert abs(psi.overlap(psi) - 1) < 1e-12


# -------------------------------------------------------------- DensityMatrix

def test_density_matrix_validation():
    DensityMatrix(1, np.eye(2) / 2)
    with pytest.raises(ValidationError):
        DensityMatrix(1, np.array([[0.5, 0.1], [0.2, 0.5]]))  # non-Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # not PSD


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_matrix_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(1, np.array([[0.5, 0.0], [0.0, bad]]))
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(1, np.array([[0.5, bad], [bad, 0.5]]))


# ------------------------------------------------------------------ PauliWord

def test_pauli_word_matrix_properties():
    for letters in ("XX", "XY", "ZI", "IZ", "YZX"):
        w = PauliWord(letters)
        m = w.matrix()
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(len(m)))
        if set(letters) == {"I"}:
            assert abs(np.trace(m) - len(m)) < 1e-12
        else:
            assert abs(np.trace(m)) < 1e-12


def test_pauli_word_weight():
    assert PauliWord("IXIZ").weight == 2
    assert PauliWord("III").weight == 0
    with pytest.raises(ValidationError):
        PauliWord("AB")


# -------------------------------------------------------------- hermitian_eig

def test_hermitian_eig_identity():
    dec = hermitian_eig(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])


def test_hermitian_eig_rank1_projector():
    dec = hermitian_eig(np.full((2, 2), 0.5))
    assert np.allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_hermitian_eig_two_level_formula_case():
    # [[1/2+z, u], [u, 1/2-z]] with z=0.3, u=0.4 has eigenvalues
    # 1/2 -+ sqrt(|u|^2 + z^2) = (0, 1)
    dec = hermitian_eig(np.array([[0.8, 0.4], [0.4, 0.2]]))
    assert np.allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="asymmetry"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_random_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        m = random_hermitian(rng, dim)
        dec = hermitian_eig(m)
        back = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.linalg.norm(back - m) <= 1e-10 * dim
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-14)


# --------------------------------------------------------------- numeric_rank

def test_numeric_rank_examples():
    proj = np.zeros((2, 2))
    proj[0, 0] = 1.0
    assert numeric_rank(proj) == 1
    assert numeric_rank(np.eye(8) / 8) == 8


def test_numeric_rank_monotone_in_threshold():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((6, 6))
    m = m @ m.T  # PSD
    ranks = [numeric_rank(m, t) for t in (1e-10, 1e-6, 1e-2, 1.0, 100.0)]
    assert ranks == sorted(ranks, reverse=True)


def test_numeric_rank_of_pure_projector_is_one():
    for seed in range(5):
        psi = haar_random_state(3, seed)
        assert numeric_rank(psi.projector().mat) == 1


def test_numeric_rank_rejects_negative_matrix():
    with pytest.raises(ValidationError):
        numeric_rank(np.diag([1.0, -0.5]))


# --------------------------------------------------------- random generators

def test_haar_random_state_normalized_and_deterministic():
    a = haar_random_state(3, 42)
    b = haar_random_state(3, 42)
    assert abs(np.linalg.norm(a.amps) - 1.0) < 1e-12
    assert np.array_equal(a.amps, b.amps)


def test_haar_random_state_seed_sensitivity():
    a = haar_random_state(3, 42)
    b = haar_random_state(3, 43)
    assert np.max(np.abs(a.amps - b.amps)) > 1e-6


def test_haar_random_state_rejects_n0():
    with pytest.raises(ValidationError):
        haar_random_state(0, 1)


def test_random_local_unitaries_are_unitary():
    us = random_local_unitaries(4, 5)
    assert len(us) == 4
    for u in us:
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_apply_local_unitaries_preserves_overlaps():
    psi = haar_random_state(3, 1)
    phi = haar_random_state(3, 2)
    us = random_local_unitaries(3, 3)
    ov_before = psi.overlap(phi)
    ov_after = apply_local_unitaries(psi, us).overlap(apply_local_unitaries(phi, us))
    assert abs(ov_before - ov_after) < 1e-12


def test_apply_local_unitaries_single_qubit_convention():
    # qubit 1 is the most significant bit: X on qubit 1 of |000> gives |100>
    psi = PureState(3, np.eye(8)[0].astype(complex))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    out = apply_local_unitaries(psi, [x, np.eye(2), np.eye(2)])
    assert np.allclose(out.amps, np.eye(8)[0b100])


# --------------------------------------------------------------- psd_segment

@pytest.mark.parametrize("c, b", [(0.3, 0.4 + 0.2j), (1.0, 0.0),
                                  (1e-3, 2.0)])
def test_psd_segment_two_level_closed_form(c, b):
    # det(diag(1, 0) + t x) = t c - t^2 (c^2 + |b|^2): the partner root
    x = np.array([[-c, b], [np.conj(b), c]])
    tm, tp = psd_segment(np.diag([1.0, 0.0]), x)
    assert tm == 0.0
    assert tp == pytest.approx(c / (c**2 + abs(b) ** 2), rel=1e-14)


def test_psd_segment_coupling_into_the_kernel_is_stuck():
    # lambda_min(rho + t x) ~ -t^2 here, so a bisection with an eigenvalue
    # slack of 1e-10 would report a step of about 1e-5
    x = np.zeros((3, 3))
    x[0, 1] = x[1, 0] = x[2, 2] = 1.0
    assert psd_segment(np.diag([1.0, 0.0, 0.0]), x) == (0.0, 0.0)


def test_psd_segment_full_rank_ends_and_unbounded_side():
    rho = np.diag([0.5, 0.3, 0.2])
    tm, tp = psd_segment(rho, np.diag([1.0, -1.0, 0.0]))
    assert (tm, tp) == pytest.approx((-0.5, 0.3), rel=1e-14)
    tm, tp = psd_segment(rho, np.eye(3))
    assert tm == pytest.approx(-0.2, rel=1e-14)
    assert tp == np.inf


def test_psd_segment_stack_matches_one_at_a_time():
    rng = np.random.default_rng(17)
    psi = haar_random_state(2, 3).projector().mat
    rho = 0.7 * psi + 0.3 * haar_random_state(2, 4).projector().mat
    for base in (psi, rho, np.eye(4) / 4):
        xs = np.array([random_hermitian(rng, 4) for _ in range(6)])
        xs[1] = np.diag([1.0, 0.0, 0.0, 0.0])   # a PSD step: one end inf
        tm, tp = psd_segment(base, xs)
        assert tm.shape == tp.shape == (6,)
        for k, x in enumerate(xs):
            assert (tm[k], tp[k]) == psd_segment(base, x)


def test_psd_segment_ends_are_exact_boundaries():
    rng = np.random.default_rng(18)
    rho = 0.6 * haar_random_state(3, 5).projector().mat + 0.4 * np.eye(8) / 8
    for _ in range(5):
        x = random_hermitian(rng, 8)
        for t in psd_segment(rho, x):
            low = np.linalg.eigvalsh(rho + t * x)
            assert abs(low[0]) <= 1e-12
