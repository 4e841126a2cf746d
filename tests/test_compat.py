"""Tests for the RDM-preserving direction span, PSD feasibility search,
determinedness verdicts, and the rank-2 check."""

import numpy as np
import pytest

from rdmkit import compat
from rdmkit.compat import (determinedness, direction_from_coeffs,
                           direction_from_matrix, fullweight_basis,
                           parent_hamiltonian, rank2_check, search_max_tmax,
                           tmax_along)
from rdmkit.ghz import GhzCertificate, GhzParams, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, PauliWord, PureState,
                           ValidationError, apply_local_unitaries,
                           haar_random_state, random_local_unitaries)
from rdmkit.rdm import partial_trace_matrix, ptr_tuple, rdm_max_distance

INV_SQRT2 = 1 / np.sqrt(2)
W3 = np.zeros(8, dtype=complex)
W3[[1, 2, 4]] = 1 / np.sqrt(3)


def rotated(psi, seed):
    return apply_local_unitaries(psi, random_local_unitaries(psi.n, seed))


def w_state(n):
    v = np.zeros(2**n, dtype=complex)
    v[[1 << j for j in range(n)]] = 1 / np.sqrt(n)
    return PureState(n, v)


def product_state(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return PureState(n, v)


def rotated_ghz(n, seed):
    rng = np.random.default_rng(seed)
    b2 = rng.uniform(0.05, 0.45)
    phase = np.exp(2j * np.pi * rng.uniform())
    return rotated(make_ghz(n, np.sqrt(1 - b2), np.sqrt(b2) * phase), seed)


def oracle_boundary(rho, mat, sign, hi=2.0, iters=80):
    """Independent PSD-boundary bisection via dense eigvalsh only."""
    def ok(t):
        return np.linalg.eigvalsh(rho + sign * t * mat)[0] >= -1e-10
    if ok(hi):
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ----------------------------------------------------------- fullweight_basis

def test_basis_counts_and_letters():
    b2 = fullweight_basis(2)
    assert b2.count == 9
    assert sorted(w.letters for w in b2.words) == sorted(
        [x + y for x in "XYZ" for y in "XYZ"])
    assert fullweight_basis(3).count == 27


def test_basis_words_have_zero_partial_traces():
    for w in fullweight_basis(2).words:
        m = w.matrix()
        for j in (1, 2):
            assert np.linalg.norm(partial_trace_matrix(m, 2, {j})) <= 1e-12


def test_basis_range_check():
    with pytest.raises(ValidationError):
        fullweight_basis(1)
    with pytest.raises(ValidationError):
        fullweight_basis(9)


def test_basis_words_trace_orthogonal():
    words = fullweight_basis(2).words
    mats = [w.matrix() for w in words]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert abs(np.trace(mats[i] @ mats[j])) <= 1e-12


# ------------------------------------------------------------------ Direction

def test_direction_normalization_and_traceless_marginals():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for _ in range(10):
            d = direction_from_coeffs(n, rng.standard_normal(3**n))
            assert abs(np.linalg.norm(d.matrix) - 1.0) < 1e-12
            for j in range(1, n + 1):
                tr = partial_trace_matrix(d.matrix, n, {j})
                assert np.linalg.norm(tr) <= 1e-12


def test_direction_from_matrix_round_trip():
    rng = np.random.default_rng(5)
    d = direction_from_coeffs(2, rng.standard_normal(9))
    d2 = direction_from_matrix(2, 3.7 * d.matrix)
    assert np.allclose(d2.matrix, d.matrix, atol=1e-12)


def test_direction_from_matrix_rejects_out_of_span():
    # Z (x) I has an identity letter, hence nonzero single-qubit marginals
    zi = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValidationError):
        direction_from_matrix(2, zi)


# ----------------------------------------------------------------- tmax_along

def test_tmax_maximally_mixed_along_zzz():
    rho = DensityMatrix(3, np.eye(8) / 8)
    zzz = np.diag([1.0, -1, -1, 1, -1, 1, 1, -1])
    d = direction_from_matrix(3, zzz)
    tm, tp = tmax_along(rho, d)
    # eigenvalues 1/8 +- t/sqrt(8) hit zero at t = sqrt(8)/8
    expected = np.sqrt(8) / 8
    assert abs(tp - expected) < 1e-9
    assert abs(tm + expected) < 1e-9


def test_tmax_ghz_along_offdiagonal_pair():
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    pair = np.zeros((8, 8), dtype=complex)
    pair[0, 7] = pair[7, 0] = INV_SQRT2
    d = direction_from_matrix(3, pair)
    tm, tp = tmax_along(psi.projector(), d)
    # moving toward z = -1 is a step of Frobenius size sqrt(2)
    assert abs(tm + np.sqrt(2)) < 1e-9
    assert tp <= 1e-9
    # cross-check both boundaries against the independent oracle
    assert abs(tp - oracle_boundary(psi.projector().mat, d.matrix, 1)) < 1e-9
    assert abs(-tm - oracle_boundary(psi.projector().mat, d.matrix, -1)) < 1e-9


def test_tmax_ghz_along_xxx_matches_oracle():
    # X(x)X(x)X couples every complement pair at once; blocks away from
    # {000, 111} go indefinite immediately, so both boundaries sit at zero
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    xxx = np.zeros((8, 8))
    for x in range(8):
        xxx[x, 7 - x] = 1.0
    d = direction_from_matrix(3, xxx)
    tm, tp = tmax_along(psi.projector(), d)
    assert abs(tp - oracle_boundary(psi.projector().mat, d.matrix, 1)) < 1e-9
    assert abs(-tm - oracle_boundary(psi.projector().mat, d.matrix, -1)) < 1e-9
    assert tp <= 1e-8 and tm >= -1e-8


def test_tmax_haar_projector_pinned_at_zero():
    rho = haar_random_state(3, 7).projector()
    for w in fullweight_basis(3).words[::5]:
        d = direction_from_matrix(3, w.matrix())
        tm, tp = tmax_along(rho, d)
        assert tp <= 1e-8 and tm >= -1e-8


# ------------------------------------------------------------ search_max_tmax

def test_search_ghz_finds_large_step():
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    found = search_max_tmax(psi.projector(), restarts=8, seed=0)
    assert found >= 0.49


def test_search_w_and_product_stay_pinned():
    assert search_max_tmax(PureState(3, W3).projector(),
                           restarts=8, seed=0) <= 1e-6
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    assert search_max_tmax(PureState(3, e0).projector(),
                           restarts=8, seed=0) <= 1e-6


def test_search_deterministic_in_seed():
    rho = make_ghz(3, np.sqrt(0.6), np.sqrt(0.4)).projector()
    a = search_max_tmax(rho, restarts=4, seed=11)
    b = search_max_tmax(rho, restarts=4, seed=11)
    assert a == b


def test_search_rejects_zero_restarts():
    with pytest.raises(ValidationError):
        search_max_tmax(make_ghz(2, INV_SQRT2, INV_SQRT2).projector(),
                        restarts=0, seed=0)


# -------------------------------------------------------------- determinedness

def test_verdict_ghz_undetermined_with_witness():
    v = determinedness(make_ghz(4, np.sqrt(0.8), np.sqrt(0.2)),
                       restarts=2, seed=0)
    assert v.determined is False
    assert v.anomaly is None
    assert v.numeric_sup_tmax > 0.1
    assert v.witness_family is not None
    base = ptr_tuple(make_ghz(4, np.sqrt(0.8), np.sqrt(0.2)).projector())
    for z in (0.0, -1.0, 0.3j):
        member = v.witness_family.member(z)
        assert rdm_max_distance(ptr_tuple(member), base) <= 1e-9


def test_verdict_w_determined():
    v = determinedness(PureState(3, W3), restarts=8, seed=0)
    assert v.determined is True
    assert v.anomaly is None
    assert v.numeric_sup_tmax <= 1e-6


def test_verdict_product_state_determined():
    e0 = np.zeros(16, dtype=complex)
    e0[0] = 1.0
    v = determinedness(PureState(4, e0), restarts=2, seed=0)
    assert v.determined is True
    assert v.anomaly is None


def test_verdict_validates_before_either_cross_check():
    psi = haar_random_state(3, 1)
    with pytest.raises(ValidationError, match="restarts"):
        determinedness(psi, restarts=0)
    with pytest.raises(ValidationError, match="2..6"):
        determinedness(haar_random_state(7, 1))


# ------------------------------------------------------- parent Hamiltonian

def determined_corpus():
    for n in (3, 4):
        for k in range(3):
            yield haar_random_state(n, 4100 + 10 * n + k)
        yield rotated(w_state(n), 4200 + n)
        yield rotated(product_state(n), 4300 + n)


def test_parent_hamiltonian_is_a_checkable_proof():
    # H uses no full-weight word, annihilates psi and is gapped above it
    psi = haar_random_state(3, 4001)
    parent = parent_hamiltonian(psi)
    for w in fullweight_basis(3).words:
        assert abs(np.trace(w.matrix() @ parent.matrix)) <= 1e-12
    assert np.linalg.norm(parent.matrix @ psi.amps) <= 1e-12
    assert np.allclose(parent.matrix, parent.matrix.conj().T, atol=1e-14)
    evals = np.linalg.eigvalsh(parent.matrix)
    assert evals[0] >= -1e-12
    assert parent.gap == evals[1] > 0.01
    assert parent.certifies


def test_parent_hamiltonian_certifies_a_two_qubit_product_state():
    # at n=2 every word with an identity letter has weight <= 1: IZ and
    # ZI pin |00>, and no full-weight word may take part
    parent = parent_hamiltonian(product_state(2))
    zi = PauliWord("ZI").matrix()
    iz = PauliWord("IZ").matrix()
    assert abs(np.trace(zi @ parent.matrix)) > 0.1
    assert abs(np.trace(iz @ parent.matrix)) > 0.1
    assert parent.certifies


def test_certificate_and_search_agree_on_determined_states():
    for psi in determined_corpus():
        parent = parent_hamiltonian(psi)
        assert parent.certifies, (psi.n, parent.gap, parent.bound)
        assert search_max_tmax(psi.projector(), restarts=8, seed=0) <= 1e-6


def test_certified_bound_holds_along_sampled_directions():
    rng = np.random.default_rng(8)
    for psi in list(determined_corpus())[:5]:
        bound = parent_hamiltonian(psi).bound
        for _ in range(5):
            d = direction_from_coeffs(psi.n, rng.standard_normal(3**psi.n))
            tm, tp = tmax_along(psi.projector(), d)
            assert max(tp, -tm) <= max(bound, 1e-8)


def test_verdict_uses_certificate_on_determined_states():
    v = determinedness(rotated(w_state(4), 9), restarts=64, seed=0)
    assert v.determined is True
    assert v.anomaly is None
    assert v.cross_check == "parent_hamiltonian"
    assert v.samples_used == 0
    assert v.parent_gap > 0.01
    assert v.numeric_sup_tmax <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ghz_gets_no_certificate_and_search_runs(n):
    psi = rotated_ghz(n, 4400 + n)
    parent = parent_hamiltonian(psi)
    assert parent.gap <= 1e-8
    assert not parent.certifies
    v = determinedness(psi, restarts=1, seed=0)
    assert v.determined is False
    assert v.anomaly is None
    assert v.cross_check == "search"
    assert v.samples_used > 0
    assert v.parent_gap == parent.gap
    assert v.numeric_sup_tmax > 0.1


def test_search_fallback_still_flags_a_misclassified_ghz(monkeypatch):
    # unrotated, so the search's complementary-pair seeds reach the step
    # even without the witness directions a GHZ verdict would add
    psi = make_ghz(3, np.sqrt(0.7), np.sqrt(0.3))

    def says_not_ghz(psi, tol=1e-8):
        return GhzCertificate(False, False, 0.5)

    monkeypatch.setattr(compat, "detect_ghz_type", says_not_ghz)
    v = determinedness(psi, restarts=1, seed=0)
    assert v.determined is True
    assert v.cross_check == "search"
    assert v.numeric_sup_tmax > 0.1
    assert v.anomaly.startswith("theorem says determined")


def test_certificate_on_a_ghz_verdict_is_an_anomaly(monkeypatch):
    psi = rotated_ghz(3, 4600)
    fake = compat.ParentHamiltonian(np.eye(8), gap=0.5, bound=1e-7)
    monkeypatch.setattr(compat, "parent_hamiltonian", lambda psi: fake)
    v = determinedness(psi, restarts=1, seed=0)
    assert v.determined is False
    assert v.cross_check == "parent_hamiltonian"
    assert v.samples_used == 0
    assert v.numeric_sup_tmax == 1e-7
    assert v.anomaly.startswith("theorem says undetermined but a parent "
                                "Hamiltonian (gap 5.000e-01)")


def test_every_anomaly_is_kept(monkeypatch):
    # a GHZ certificate of another state, patched in over a W state, trips
    # both the cross-check and the witness-family residual
    ghz_cert = compat.detect_ghz_type(make_ghz(3, np.sqrt(0.7), np.sqrt(0.3)))
    monkeypatch.setattr(compat, "detect_ghz_type",
                        lambda psi, tol=1e-8: ghz_cert)
    v = determinedness(w_state(3), restarts=1, seed=0)
    assert v.determined is False
    assert v.cross_check == "parent_hamiltonian"
    assert v.anomaly.startswith("theorem says undetermined but a parent "
                                "Hamiltonian")
    assert "; witness family RDM residual" in v.anomaly


# ----------------------------------------------------------- RDM preservation

def test_steps_inside_the_segment_preserve_rdms():
    rng = np.random.default_rng(6)
    count = 0
    while count < 100:
        n = int(rng.integers(2, 4))
        psi = haar_random_state(n, int(rng.integers(1 << 30)))
        mix = 0.6 * np.eye(2**n) / 2**n + 0.4 * psi.projector().mat
        rho = DensityMatrix(n, mix)
        d = direction_from_coeffs(n, rng.standard_normal(3**n))
        tm, tp = tmax_along(rho, d)
        if tp - tm < 1e-6:
            continue
        t = rng.uniform(tm, tp)
        shifted = DensityMatrix(n, rho.mat + t * d.matrix)
        assert rdm_max_distance(ptr_tuple(shifted), ptr_tuple(rho)) <= 1e-10
        count += 1


# ------------------------------------------------------------------ rank2_check

def test_rank2_on_family_members():
    params = GhzParams(3, INV_SQRT2, INV_SQRT2)
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    assert rank2_check(psi, ghz_family(params, 0.3))
    params2 = GhzParams(3, np.sqrt(0.8), np.sqrt(0.2))
    psi2 = make_ghz(3, np.sqrt(0.8), np.sqrt(0.2))
    assert rank2_check(psi2, ghz_family(params2, 0.0))


def test_rank2_rejects_pure_omega():
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    with pytest.raises(ValidationError):
        rank2_check(psi, psi.projector())


def test_rank2_rejects_rdm_mismatch():
    psi = make_ghz(3, INV_SQRT2, INV_SQRT2)
    with pytest.raises(ValidationError):
        rank2_check(psi, DensityMatrix(3, np.eye(8) / 8))


# ---------------------------------------------------------- span dimension

def hermitian_basis(dim):
    """Real basis of dim x dim Hermitian matrices."""
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            out.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1j
            e[j, i] = -1j
            out.append(e)
    return out


def test_null_space_of_marginal_constraints_matches_span_n2():
    n, dim = 2, 4
    basis = hermitian_basis(dim)
    rows = []
    for h in basis:
        row = []
        for j in range(1, n + 1):
            row.append(partial_trace_matrix(h, n, {j}).ravel())
        rows.append(np.concatenate(row))
    constraint = np.array(rows)  # (16, constraints)
    null_dim = 16 - np.linalg.matrix_rank(
        np.hstack([constraint.real, constraint.imag]), tol=1e-10)
    assert null_dim == 9
