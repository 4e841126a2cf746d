"""Tests for Schmidt splits, purifications, environment vectors, and the
cross-qubit consistency constraint."""

import tracemalloc

import numpy as np
import pytest

from rdmkit import schmidt
from rdmkit.ghz import GhzParams, detect_ghz_type, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, MultiIndex, PureState,
                           ValidationError, apply_local_unitaries,
                           haar_random_state, random_local_unitaries)
from rdmkit.rdm import partial_trace_matrix
from rdmkit.schmidt import (Purification, extract_env_vectors,
                            extract_env_vectors_all,
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


def dense_rest_rdm(psi, j):
    """The rest-side RDM from its definition: trace qubit j out of psi psi^dag."""
    return partial_trace_matrix(psi.projector().mat, psi.n, [j])


def rotated(psi, seed):
    return apply_local_unitaries(psi, random_local_unitaries(psi.n, seed))


def w_state(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[[2**k for k in range(n)]] = 1 / np.sqrt(n)
    return PureState(n, amps)


def zero_state(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return PureState(n, amps)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_gives_eigenpairs_of_the_dense_rest_rdm(n):
    states = ([haar_random_state(n, 60 + s) for s in range(4)]
              + [rotated(w_state(n), 70 + s) for s in range(4)]
              + [rotated(make_ghz(n, np.sqrt(0.7), np.sqrt(0.3)), 80 + s)
                 for s in range(4)])
    for psi in states:
        for j in range(1, n + 1):
            rho = dense_rest_rdm(psi, j)
            top = np.linalg.eigvalsh(rho)[::-1][:2]
            s = schmidt_split(psi, j)
            for i in range(2):
                assert abs(s.q[i] - top[i]) <= 1e-10
                assert abs(np.linalg.norm(s.chi[i]) - 1.0) <= 1e-10
                assert np.linalg.norm(rho @ s.chi[i]
                                      - s.q[i] * s.chi[i]) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_spans_the_degenerate_eigenspace(n):
    # |a| = |b|: chi0, chi1 are only fixed as a basis of the 2-d eigenspace
    for seed in range(4):
        psi = rotated(make_ghz(n, np.sqrt(0.5), np.sqrt(0.5)), 90 + seed)
        for j in range(1, n + 1):
            vals, vecs = np.linalg.eigh(dense_rest_rdm(psi, j))
            ref = vecs[:, -2:] @ vecs[:, -2:].conj().T
            s = schmidt_split(psi, j)
            proj = s.chi.T @ s.chi.conj()
            assert np.linalg.norm(proj - ref) <= 1e-10
            assert np.allclose(s.q, vals[::-1][:2], atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_of_product_states(n):
    for seed in range(4):
        psi = rotated(zero_state(n), 100 + seed)
        for j in range(1, n + 1):
            s = schmidt_split(psi, j)
            assert s.q[1] <= schmidt.PRODUCT_Q_TOL
            assert s.is_product
            rho = dense_rest_rdm(psi, j)
            assert np.linalg.norm(rho @ s.chi[0] - s.q[0] * s.chi[0]) <= 1e-10


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


def test_purify_checks_the_trace_back_without_building_the_system_state(
        monkeypatch):
    def fail(self):
        raise AssertionError("system_state called")

    monkeypatch.setattr(Purification, "system_state", fail)
    params = GhzParams(4, np.sqrt(0.7), np.sqrt(0.3))
    pur = purify(ghz_family(params, 0.4))
    assert pur.env_dim == 2
    o = pur.omega_vec.reshape(16, 2)
    assert np.linalg.norm(o @ o.conj().T
                          - ghz_family(params, 0.4).mat) <= 1e-12
    # seven eigenvalues below the 1e-10 rank cut are dropped, and the
    # trace-back check still sees what they leave out
    small = np.full(7, 9e-11)
    omega = DensityMatrix(3, np.diag(np.concatenate(
        [[1.0 - small.sum()], small])).astype(complex))
    with pytest.raises(ValidationError, match="trace-back residual"):
        purify(omega)


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


@pytest.mark.parametrize("n, z", [(3, 0.5), (4, -0.3 + 0.4j), (5, 1.0)])
def test_env_vectors_all_equal_per_qubit_extraction(n, z):
    a, b = np.sqrt(0.65), np.sqrt(0.35) * np.exp(0.7j)
    psi = make_ghz(n, a, b)
    pur = purify(ghz_family(GhzParams(n, a, b), z))
    envs = extract_env_vectors_all(pur, psi)
    assert [e.j for e in envs] == list(range(1, n + 1))
    for env in envs:
        ref = extract_env_vectors(pur, psi, env.j)
        assert (env.n, env.j, env.env_dim) == (ref.n, ref.j, ref.env_dim)
        assert env.split.q == ref.split.q
        for name in ("chi", "alpha0", "alpha1"):
            assert np.array_equal(getattr(env.split, name),
                                  getattr(ref.split, name))
        for name in ("big_e", "small", "omega_split"):
            assert np.array_equal(getattr(env, name), getattr(ref, name))


def test_env_vectors_all_reject_rdm_mismatch():
    psi = haar_random_state(3, 6)
    pur = pure_purification(haar_random_state(3, 7))
    with pytest.raises(ValidationError, match="RDM mismatch at qubit 1"):
        extract_env_vectors_all(pur, psi)


def test_env_vectors_reject_product_split():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    psi = PureState(3, amps)
    pur = pure_purification(psi)
    with pytest.raises(ValidationError):
        extract_env_vectors(pur, psi, 1)


# ------------------------------------------------------------ main constraint

def per_index_max_residual(envs, psi):
    """The main constraint one multi-index and one qubit pair at a time."""
    n = psi.n
    return max(main_constraint_residual(envs[a], envs[b], psi,
                                        MultiIndex.from_flat(flat, n))
               for a in range(n) for b in range(a + 1, n)
               for flat in range(2**n))


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
    worst = main_constraint_max_residual(envs, psi)
    assert worst > 1e-3
    assert abs(worst - per_index_max_residual(envs, psi)) <= 1e-14


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_main_constraint_max_matches_per_index_loop(n):
    a, b = np.sqrt(0.7), np.sqrt(0.3) * np.exp(1.1j)
    psi = make_ghz(n, a, b)
    params = GhzParams(n, a, b)
    for z in (0.0, 0.5, -0.2 + 0.6j, np.exp(2.3j)):
        envs = extract_env_vectors_all(purify(ghz_family(params, z)), psi)
        fast = main_constraint_max_residual(envs, psi)
        assert abs(fast - per_index_max_residual(envs, psi)) <= 1e-14, z


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


# ------------------------------------------------------- beyond the verdict's n
# The split works on the 2 x 2^(n-1) amplitude matrix, so these calls cost
# O(n 2^n); none of these tests times anything.

SCALE_STATES = {
    "haar": lambda n: haar_random_state(n, 14),
    "gapped": lambda n: rotated(make_ghz(n, np.sqrt(0.7), np.sqrt(0.3)), 15),
    "degenerate": lambda n: rotated(make_ghz(n, np.sqrt(0.5), np.sqrt(0.5)),
                                    16),
    "product": lambda n: rotated(zero_state(n), 17),
}


def test_detect_and_product_split_at_n14():
    states = {name: make(14) for name, make in SCALE_STATES.items()}
    gapped = detect_ghz_type(states["gapped"])
    assert gapped.is_ghz and not gapped.inconclusive
    assert abs(gapped.params.a - np.sqrt(0.7)) <= 1e-8
    assert abs(gapped.params.b - np.sqrt(0.3)) <= 1e-8
    degenerate = detect_ghz_type(states["degenerate"])
    assert degenerate.is_ghz and not degenerate.inconclusive
    for name in ("haar", "product"):
        cert = detect_ghz_type(states[name])
        assert not cert.is_ghz and not cert.inconclusive, name
    assert product_split_test(states["product"], 1)
    assert not product_split_test(states["gapped"], 1)


@pytest.mark.parametrize("name", sorted(SCALE_STATES))
def test_detect_memory_stays_linear_in_the_state_at_n16(name):
    # a 2^(n-1) x 2^(n-1) matrix would take 16384 state sizes here
    psi = SCALE_STATES[name](16)
    tracemalloc.start()
    try:
        detect_ghz_type(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * psi.amps.nbytes
