"""Tests for partial traces, the RDM-tuple map, and tuple comparison."""

import itertools

import numpy as np
import pytest

from rdmkit.ghz import GhzParams, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, PauliWord, PureState,
                           ValidationError, apply_local_unitaries,
                           haar_random_state, random_local_unitaries)
from rdmkit.rdm import (partial_trace, partial_trace_matrix, ptr_tuple,
                        rdm_distances, rdm_max_distance, require_equal_rdms,
                        require_rdms_match)
from rdmkit.schmidt import purify

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def ghz_state(n, a, b):
    v = np.zeros(2**n, dtype=complex)
    v[0] = a
    v[-1] = b
    return PureState(n, v)


# ------------------------------------------------------------- partial_trace

def test_trace_qubit2_of_product_00():
    rho = PureState(2, np.eye(4)[0].astype(complex)).projector()
    out = partial_trace(rho, {2})
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    assert np.allclose(out.mat, expected)


def test_trace_qubit2_of_bell_is_maximally_mixed():
    rho = PureState(2, BELL).projector()
    out = partial_trace(rho, {2})
    assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)


def test_trace_qubit1_of_ghz3():
    rho = ghz_state(3, 1 / np.sqrt(2), 1 / np.sqrt(2)).projector()
    out = partial_trace(rho, {1})
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.5
    expected[3, 3] = 0.5
    assert np.allclose(out.mat, expected, atol=1e-12)


def test_partial_trace_rejects_empty_and_full_subsets():
    rho = PureState(2, BELL).projector()
    with pytest.raises(ValidationError):
        partial_trace(rho, set())
    with pytest.raises(ValidationError):
        partial_trace(rho, {1, 2})


def test_partial_trace_preserves_trace_and_psd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        psi = haar_random_state(3, int(rng.integers(1 << 30)))
        out = partial_trace(psi.projector(), {2})
        assert abs(np.trace(out.mat) - 1) < 1e-12
        assert np.linalg.eigvalsh(out.mat)[0] > -1e-12


def test_partial_trace_linearity():
    rng = np.random.default_rng(1)
    n = 3
    for _ in range(10):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = a + a.conj().T
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = b + b.conj().T
        al, be = rng.standard_normal(2)
        lhs = partial_trace_matrix(al * a + be * b, n, {2})
        rhs = (al * partial_trace_matrix(a, n, {2})
               + be * partial_trace_matrix(b, n, {2}))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_partial_trace_composition():
    # tracing {1} then {1} (relabelled) equals tracing {1,2} at once
    for seed in range(10):
        psi = haar_random_state(4, seed)
        m = psi.projector().mat
        once = partial_trace_matrix(m, 4, {1, 2})
        twice = partial_trace_matrix(partial_trace_matrix(m, 4, {1}), 3, {1})
        assert np.allclose(once, twice, atol=1e-12)


# ----------------------------------------------------------------- ptr_tuple

def test_ptr_tuple_bell():
    t = ptr_tuple(PureState(2, BELL).projector())
    assert len(t.parts) == 2
    for part in t.parts:
        assert np.allclose(part.mat, np.eye(2) / 2, atol=1e-12)


def test_ptr_tuple_ghz3_permutation_symmetric():
    t = ptr_tuple(ghz_state(3, 1 / np.sqrt(2), 1 / np.sqrt(2)).projector())
    expected = np.diag([0.5, 0, 0, 0.5])
    for part in t.parts:
        assert np.allclose(part.mat, expected, atol=1e-12)


def test_ptr_tuple_product_with_bell():
    amps = np.kron(np.array([1, 0], dtype=complex), BELL)
    rho = PureState(3, amps).projector()
    t = ptr_tuple(rho)
    # part 1 traces out qubit 1, leaving the Bell projector
    assert np.allclose(t.parts[0].mat, np.outer(BELL, BELL.conj()), atol=1e-12)
    for j in (1, 2, 3):
        direct = partial_trace(rho, {j})
        assert np.allclose(t.parts[j - 1].mat, direct.mat, atol=1e-12)


def test_ptr_tuple_rejects_single_qubit():
    with pytest.raises(ValidationError):
        ptr_tuple(DensityMatrix(1, np.eye(2) / 2))


def test_ptr_tuple_consistency_residual_small():
    for seed in range(5):
        t = ptr_tuple(haar_random_state(4, seed).projector())
        assert t.consistency_residual() <= 1e-10


# ----------------------------------------------------------- rdm_max_distance

def test_rdm_distance_to_self_is_zero():
    t = ptr_tuple(haar_random_state(3, 7).projector())
    assert rdm_max_distance(t, t) == 0.0


def test_ghz_and_sign_flipped_partner_share_rdms():
    a, b = np.sqrt(0.7), np.sqrt(0.3)
    t1 = ptr_tuple(ghz_state(4, a, b).projector())
    t2 = ptr_tuple(ghz_state(4, a, -b).projector())
    assert rdm_max_distance(t1, t2) <= 1e-12
    # ... while the states themselves are far apart
    d = np.linalg.norm(ghz_state(4, a, b).projector().mat
                       - ghz_state(4, a, -b).projector().mat)
    assert d > 0.5


def test_ghz_vs_w_rdms_differ():
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    t1 = ptr_tuple(ghz_state(3, 1 / np.sqrt(2), 1 / np.sqrt(2)).projector())
    t2 = ptr_tuple(PureState(3, w).projector())
    assert rdm_max_distance(t1, t2) > 0.1


def test_rdm_distance_rejects_mismatched_n():
    t2 = ptr_tuple(PureState(2, BELL).projector())
    t3 = ptr_tuple(haar_random_state(3, 0).projector())
    with pytest.raises(ValidationError):
        rdm_max_distance(t2, t3)


# -------------------------------------------------------------- rdm_distances

def factored_cases(n):
    """(name, psi, F) with omega = F F^dag: pure, GHZ-family, rank 2, rank 1."""
    rng = np.random.default_rng([n, 2718])

    def unit(shape):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return f / np.linalg.norm(f)

    haar = haar_random_state(n, 900 + n)
    a, b = np.sqrt(0.7), np.sqrt(0.3) * np.exp(0.4j)
    us = random_local_unitaries(n, 910 + n)
    ghz = apply_local_unitaries(make_ghz(n, a, b), us)
    member = ghz_family(GhzParams(n, a, b), -0.3 + 0.5j)
    lift = np.ones((1, 1))
    for u in us:
        lift = np.kron(lift, u)
    pur = purify(DensityMatrix(n, lift @ member.mat @ lift.conj().T))
    return [
        ("pure", haar, haar_random_state(n, 920 + n).amps),
        ("ghz-family", ghz, pur.omega_vec.reshape(2**n, pur.env_dim)),
        ("rank-2", haar, unit((2**n, 2))),
        ("rank-1", haar, unit((2**n, 1))),
    ]


@pytest.mark.parametrize("n", range(2, 8))
def test_rdm_distances_match_the_dense_tuples(n):
    for name, psi, f in factored_cases(n):
        omega = DensityMatrix(n, f.reshape(2**n, -1) @ f.reshape(2**n, -1)
                              .conj().T)
        ours, theirs = ptr_tuple(psi.projector()), ptr_tuple(omega)
        ref = [np.linalg.norm(x.mat - y.mat)
               for x, y in zip(ours.parts, theirs.parts)]
        factored = rdm_distances(psi, f)
        dense = rdm_distances(psi, omega)
        assert factored.shape == dense.shape == (n,)
        assert np.max(np.abs(factored - ref)) <= 1e-13, name
        assert np.max(np.abs(dense - ref)) <= 1e-13, name
        assert abs(max(factored) - rdm_max_distance(ours, theirs)) <= 1e-13


def test_rdm_gate_keeps_the_tuple_gate_and_its_message():
    psi = make_ghz(3, np.sqrt(0.7), np.sqrt(0.3))
    require_rdms_match(psi, ghz_family(GhzParams(3, np.sqrt(0.7),
                                                 np.sqrt(0.3)), 0.4))
    other = ghz_family(GhzParams(3, np.sqrt(0.3), np.sqrt(0.7)), 0.4)
    messages = []
    for check in (lambda: require_rdms_match(psi, other),
                  lambda: require_equal_rdms(ptr_tuple(psi.projector()),
                                             ptr_tuple(other))):
        with pytest.raises(ValidationError) as info:
            check()
        messages.append(str(info.value))
    assert messages == ["RDM mismatch at qubit 1: distance 5.657e-01"] * 2


def test_rdm_distances_reject_mismatched_and_single_qubit_states():
    with pytest.raises(ValidationError, match="^qubit counts differ: 3 vs 2$"):
        rdm_distances(haar_random_state(3, 0), BELL)
    with pytest.raises(ValidationError, match="^need n >= 2"):
        rdm_distances(PureState(1, np.array([1, 0], dtype=complex)),
                      DensityMatrix(1, np.eye(2) / 2))


# ------------------------------------------------- full-weight kernel property

def all_words(n):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


@pytest.mark.parametrize("n", [2, 3])
def test_fullweight_words_have_all_zero_partial_traces(n):
    for letters in all_words(n):
        if "I" in letters:
            continue
        m = PauliWord(letters).matrix()
        for j in range(1, n + 1):
            tr = partial_trace_matrix(m, n, {j})
            assert np.linalg.norm(tr) <= 1e-12, letters


@pytest.mark.parametrize("n", [2, 3])
def test_words_with_identity_letter_escape_the_kernel(n):
    # converse direction: any word containing an I has some nonzero
    # single-qubit partial trace
    for letters in all_words(n):
        if "I" not in letters or letters == "I" * n:
            continue
        m = PauliWord(letters).matrix()
        norms = [np.linalg.norm(partial_trace_matrix(m, n, {j}))
                 for j in range(1, n + 1)]
        assert max(norms) > 1.0, letters


def test_ptr_is_not_injective():
    a = b = 1 / np.sqrt(2)
    rho1 = ghz_state(3, a, b).projector()
    rho2 = ghz_state(3, a, -b).projector()
    assert rdm_max_distance(ptr_tuple(rho1), ptr_tuple(rho2)) <= 1e-12
    assert np.linalg.norm(rho1.mat - rho2.mat) > 0.5
