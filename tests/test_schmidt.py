"""Tests for Schmidt splits, purifications, environment vectors, and the
cross-qubit consistency constraint."""

import numpy as np
import pytest

from rdmkit import schmidt
from rdmkit.ghz import GhzParams, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, MultiIndex, PureState,
                           ValidationError, haar_random_state)
from rdmkit.schmidt import (Purification, extract_env_vectors,
                            main_constraint_max_residual,
                            main_constraint_residual, product_split_test,
                            purify, schmidt_split)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
W3 = np.zeros(8, dtype=complex)
W3[[1, 2, 4]] = 1 / np.sqrt(3)


# -------------------------------------------------------------- schmidt_split

def test_split_bell_pair():
    s = schmidt_split(PureState(2, BELL), 1)
    assert np.allclose(s.q, (0.5, 0.5))
    assert not s.is_product


def test_split_product_state():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    s = schmidt_split(PureState(3, amps), 1)
    assert abs(s.q[0] - 1.0) < 1e-12
    assert abs(s.q[1]) < 1e-12
    assert s.is_product
    with pytest.raises(ValidationError):
        s.alpha(1)  # undefined row of a product split


def test_split_ghz_spectrum_any_qubit():
    psi = make_ghz(4, np.sqrt(0.8), np.sqrt(0.2))
    for j in range(1, 5):
        s = schmidt_split(psi, j)
        assert np.allclose(s.q, (0.8, 0.2), atol=1e-12)


def test_split_reconstruction_on_haar_states():
    for n in (3, 4):
        for seed in range(100):
            psi = haar_random_state(n, seed)
            for j in range(1, n + 1):
                s = schmidt_split(psi, j)
                assert abs(sum(s.q) - 1.0) < 1e-10
                assert s.reconstruction_residual(psi) <= 1e-9


def test_split_phase_convention():
    # largest-magnitude component of each chi row is real positive
    psi = haar_random_state(3, 5)
    s = schmidt_split(psi, 2)
    for row in s.chi:
        k = np.argmax(np.abs(row))
        assert abs(row[k].imag) < 1e-12 and row[k].real > 0


# --------------------------------------------------------------------- purify

def test_purify_pure_projector():
    psi = haar_random_state(3, 2)
    pur = purify(psi.projector())
    assert pur.env_dim == 1
    assert abs(abs(np.vdot(pur.omega_vec, psi.amps)) - 1.0) < 1e-10


def test_purify_maximally_mixed_qubit():
    pur = purify(DensityMatrix(1, np.eye(2) / 2))
    assert pur.env_dim == 2
    back = pur.system_state()
    assert np.linalg.norm(back.mat - np.eye(2) / 2) <= 1e-12


def test_purify_ghz_family_z0():
    params = GhzParams(3, np.sqrt(0.8), np.sqrt(0.2))
    pur = purify(ghz_family(params, 0.0))
    assert pur.env_dim == 2
    assert np.linalg.norm(pur.system_state().mat
                          - ghz_family(params, 0.0).mat) <= 1e-12


def test_purification_validates_norm():
    with pytest.raises(ValidationError):
        Purification(1, 1, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_purification_rejects_non_finite(bad):
    # an all-NaN vector used to pass: its norm check compared NaN
    with pytest.raises(ValidationError, match="finite"):
        Purification(1, 2, np.full(4, bad, dtype=complex))
    with pytest.raises(ValidationError, match="finite"):
        Purification(1, 1, np.array([1.0, bad]))


# ------------------------------------------------------- environment vectors

def pure_purification(psi):
    return Purification(psi.n, 1, psi.amps.copy())


def test_env_vectors_pure_omega():
    psi = haar_random_state(3, 4)
    pur = pure_purification(psi)
    for j in range(1, 4):
        env = extract_env_vectors(pur, psi, j)
        # single environment dimension: cross vectors vanish, diagonal ones
        # are unit
        assert np.linalg.norm(env.e(0, 1)) <= 1e-12
        assert np.linalg.norm(env.e(1, 0)) <= 1e-12
        assert abs(np.vdot(env.e(0, 0), env.e(0, 0)) - 1) < 1e-10
        assert abs(np.vdot(env.e(1, 1), env.e(1, 1)) - 1) < 1e-10


def test_env_vectors_orthonormality_relations():
    params = GhzParams(3, np.sqrt(0.8), np.sqrt(0.2))
    psi = make_ghz(3, np.sqrt(0.8), np.sqrt(0.2))
    for z in (0.0, 0.5, -0.3 + 0.4j):
        pur = purify(ghz_family(params, z))
        for j in range(1, 4):
            env = extract_env_vectors(pur, psi, j)
            res = env.orthonormality_residuals()
            for name, val in res.items():
                assert val <= 1e-9, (z, j, name, val)


def test_env_vectors_cross_vanishing_pairs():
    # whenever e^j_{i i^c} = 0, so is e^j_{i^c i}
    params = GhzParams(4, np.sqrt(0.6), np.sqrt(0.4))
    psi = make_ghz(4, np.sqrt(0.6), np.sqrt(0.4))
    pur = purify(ghz_family(params, 0.0))
    for j in range(1, 5):
        env = extract_env_vectors(pur, psi, j)
        if np.linalg.norm(env.e(0, 1)) <= 1e-10:
            assert np.linalg.norm(env.e(1, 0)) <= 1e-8


def test_env_vectors_reject_rdm_mismatch():
    psi = haar_random_state(3, 6)
    other = haar_random_state(3, 7)
    pur = pure_purification(other)
    with pytest.raises(ValidationError, match="qubit"):
        extract_env_vectors(pur, psi, 1)


def test_env_vectors_reject_product_split():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    psi = PureState(3, amps)
    pur = pure_purification(psi)
    with pytest.raises(ValidationError):
        extract_env_vectors(pur, psi, 1)


# ------------------------------------------------------------ main constraint

def test_main_constraint_on_compatible_purification():
    params = GhzParams(3, np.sqrt(0.8), np.sqrt(0.2))
    psi = make_ghz(3, np.sqrt(0.8), np.sqrt(0.2))
    pur = purify(ghz_family(params, 0.5))
    envs = [extract_env_vectors(pur, psi, j) for j in range(1, 4)]
    for i in range(8):
        for j in range(3):
            for k in range(j + 1, 3):
                r = main_constraint_residual(envs[j], envs[k], psi,
                                             MultiIndex.from_flat(i, 3))
                assert r <= 1e-9, (i, j, k, r)


def test_main_constraint_pure_omega_tight():
    psi = haar_random_state(3, 8)
    pur = pure_purification(psi)
    envs = [extract_env_vectors(pur, psi, j) for j in range(1, 4)]
    assert main_constraint_max_residual(envs, psi) <= 1e-12


def test_main_constraint_rejects_equal_qubits():
    psi = haar_random_state(3, 8)
    pur = pure_purification(psi)
    env = extract_env_vectors(pur, psi, 1)
    with pytest.raises(ValidationError):
        main_constraint_residual(env, env, psi, MultiIndex.from_flat(0, 3))


def test_main_constraint_detects_incompatible_purification(monkeypatch):
    # rotate the purification by a random non-RDM-preserving unitary and
    # extract anyway (bypassing the RDM gate)
    params = GhzParams(3, 1 / np.sqrt(2), 1 / np.sqrt(2))
    psi = make_ghz(3, 1 / np.sqrt(2), 1 / np.sqrt(2))
    pur = purify(ghz_family(params, 0.5))
    rng = np.random.default_rng(12)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    u, _ = np.linalg.qr(np.eye(16) + 0.15 * (g - g.conj().T))
    bad = Purification(3, 2, u @ pur.omega_vec)
    monkeypatch.setattr(schmidt, "require_equal_rdms", lambda a, b: None)
    envs = [extract_env_vectors(bad, psi, j) for j in range(1, 4)]
    assert main_constraint_max_residual(envs, psi) > 1e-3


# ---------------------------------------------------------- product_split_test

def test_product_split_examples():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    assert product_split_test(PureState(3, amps), 1)
    assert not product_split_test(make_ghz(3, 1 / np.sqrt(2), 1 / np.sqrt(2)), 1)
    assert not product_split_test(PureState(3, W3), 1)


def test_product_split_w_state_q1():
    s = schmidt_split(PureState(3, W3), 1)
    assert abs(s.q[1] - 1 / 3) < 1e-12


def test_product_split_agrees_with_ratio_condition():
    rng = np.random.default_rng(21)
    for trial in range(100):
        # product state: single qubit (x) random 2-qubit state
        one = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        one /= np.linalg.norm(one)
        rest = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rest /= np.linalg.norm(rest)
        psi = PureState(3, np.kron(one, rest))
        assert product_split_test(psi, 1)
    for trial in range(100):
        psi = haar_random_state(3, 4000 + trial)
        assert not product_split_test(psi, 1)
