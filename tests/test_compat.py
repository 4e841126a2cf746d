"""Tests for the RDM-preserving direction span, PSD feasibility search,
determinedness verdicts, and the rank-2 check."""

import tracemalloc

import numpy as np
import pytest

from rdmkit import compat
from rdmkit.compat import (determinedness, direction_from_coeffs,
                           direction_from_matrix, face_check,
                           fullweight_basis, rank2_check, search_max_tmax,
                           tmax_along)
from rdmkit.ghz import GhzCertificate, GhzParams, ghz_family, make_ghz
from rdmkit.qstate import (DensityMatrix, PureState, ValidationError,
                           apply_local_unitaries, haar_random_state,
                           numeric_rank, random_local_unitaries)
from rdmkit.rdm import (partial_trace_matrix, ptr_tuple, rdm_max_distance,
                        require_equal_rdms)

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


def oracle_boundary(rho, mat, sign, hi=2.0, iters=80, slack=1e-10):
    """Independent PSD-boundary bisection via dense eigvalsh only."""
    def ok(t):
        return np.linalg.eigvalsh(rho + sign * t * mat)[0] >= -slack
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["pure", "rank2", "full"])
def test_tmax_matches_oracle_on_random_pairs(n, kind):
    # the oracle runs at a 1e-14 slack: at 1e-10 it admits extra steps
    # of about 1e-10 / |slope|, up to 3e-7 on n=2 rank-2 pairs
    rng = np.random.default_rng([4150, n, len(kind)])
    for _ in range(10):
        psi = haar_random_state(n, int(rng.integers(1 << 30)))
        mat = psi.projector().mat
        if kind == "rank2":
            phi = haar_random_state(n, int(rng.integers(1 << 30)))
            p = rng.uniform(0.2, 0.8)
            mat = p * mat + (1 - p) * phi.projector().mat
        elif kind == "full":
            mat = 0.5 * mat + 0.5 * np.eye(2**n) / 2**n
        d = direction_from_coeffs(n, rng.standard_normal(3**n))
        tm, tp = tmax_along(DensityMatrix(n, mat), d)
        assert abs(tp - oracle_boundary(mat, d.matrix, 1, slack=1e-14)) < 1e-9
        assert abs(-tm - oracle_boundary(mat, d.matrix, -1,
                                         slack=1e-14)) < 1e-9


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

def witness_cases():
    yield pytest.param(make_ghz(4, np.sqrt(0.8), np.sqrt(0.2)), id="ghz4")
    for n in range(2, 7):
        yield pytest.param(rotated_ghz(n, 4600 + n),
                           id=f"rotated-gapped-n{n}")
        phase = np.exp(2j * np.pi * n / 7)
        yield pytest.param(
            rotated(make_ghz(n, INV_SQRT2, INV_SQRT2 * phase), 4700 + n),
            id=f"rotated-equal-n{n}")


@pytest.mark.parametrize("psi", witness_cases())
def test_verdict_ghz_undetermined_with_witness(psi):
    v = determinedness(psi, restarts=2, seed=0)
    assert v.determined is False
    assert v.anomaly is None
    assert v.numeric_sup_tmax > 0.1
    assert v.witness_family is not None
    base = ptr_tuple(psi.projector())
    for z in (0.0, -1.0, 0.3j):
        member = v.witness_family.member(z)
        assert rdm_max_distance(ptr_tuple(member), base) <= 1e-9
    # the premise of the one-member witness residual: every member has
    # the z = 0 member's RDMs, because each u_j is orthogonal to its v_j
    centre = ptr_tuple(v.witness_family.member(0.0))
    for z in (-1.0, 0.5j, np.exp(0.7j)):
        member = ptr_tuple(v.witness_family.member(z))
        assert rdm_max_distance(member, centre) <= 1e-13
    assert max(abs(np.vdot(u, w))
               for u, w in v.ghz_certificate.local_bases) <= 1e-13


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


# ------------------------------------------------ the face as a proof

def determined_corpus():
    for n in (3, 4):
        for k in range(3):
            yield haar_random_state(n, 4100 + 10 * n + k)
        yield rotated(w_state(n), 4200 + n)
        yield rotated(product_state(n), 4300 + n)


def embed(mat, n, j):
    """I_j (x) mat, with mat acting on every qubit but j (1-based)."""
    lo, hi = 2 ** (j - 1), 2 ** (n - j)
    t = np.einsum("pqrs,ik->piqrks", mat.reshape(lo, hi, lo, hi),
                  np.eye(2))
    return t.reshape(2**n, 2**n)


def dense_frustration_free(psi):
    """H_ff = sum_j I_j (x) (I - P_j), P_j the support of psi's rho_(j)."""
    n, rho = psi.n, psi.projector().mat
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n + 1):
        evals, evecs = np.linalg.eigh(partial_trace_matrix(rho, n, [j]))
        kept = evecs[:, evals > 1e-12]
        h += embed(np.eye(2 ** (n - 1)) - kept @ kept.conj().T, n, j)
    return h


def oracle_corpus():
    for n in (2, 3, 4, 5):
        for kind, psi in (
                ("haar", haar_random_state(n, 5000 + n)),
                ("w", rotated(w_state(n), 5010 + n)),
                ("product", rotated(product_state(n), 5020 + n)),
                ("ghz", rotated_ghz(n, 5030 + n)),
                ("ghz-equal",
                 rotated(make_ghz(n, INV_SQRT2, INV_SQRT2 * 1j), 5040 + n))):
            yield pytest.param(psi, id=f"{kind}-n{n}")


@pytest.mark.parametrize("psi", oracle_corpus())
def test_face_kernel_is_the_kernel_of_a_dense_parent_hamiltonian(psi):
    # the dense H_ff is a checkable proof object: PSD, psi in its kernel,
    # and in the identity-letter span, so tr(H_ff rho) = 0 for every state
    # rho with psi's RDMs; its kernel is the face check's G
    h = dense_frustration_free(psi)
    assert np.allclose(h, h.conj().T, atol=1e-14)
    evals, evecs = np.linalg.eigh(h)
    assert evals[0] >= -1e-12
    assert np.linalg.norm(h @ psi.amps) <= 1e-12
    for w in fullweight_basis(psi.n).words:
        assert abs(np.trace(w.matrix() @ h)) <= 1e-12
    kernel = evecs[:, evals < 1e-8]
    face = face_check(psi)
    assert face.kernel_dim == kernel.shape[1]
    g = face.kernel
    assert np.linalg.norm(g @ g.conj().T
                          - kernel @ kernel.conj().T) <= 1e-10


def test_face_of_a_sum_of_two_products_is_their_span():
    rng = np.random.default_rng(5100)
    for n in (3, 4, 5, 6):
        prods = []
        for _ in range(2):
            p = np.ones(1, dtype=complex)
            for _ in range(n):
                p = np.kron(p, rng.standard_normal(2)
                            + 1j * rng.standard_normal(2))
            prods.append(p / np.linalg.norm(p))
        span = np.linalg.qr(np.stack(prods, axis=1))[0]
        amps = span @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        face = face_check(PureState(n, amps / np.linalg.norm(amps)))
        assert face.kernel_dim == 2
        g = face.kernel
        assert np.linalg.norm(g @ g.conj().T
                              - span @ span.conj().T) <= 1e-12


def test_face_check_proves_a_two_qubit_product_state_determined():
    # at n=2 the supports of |00>'s RDMs are one-dimensional, so G is
    # span(|00>) and the face leaves no room for another state
    face = face_check(rotated(product_state(2), 5101))
    assert (face.kernel_dim, face.null_dim, face.step) == (1, 0, 0.0)
    assert face.gap >= 1.0
    assert face.compatible is None


def test_certificate_and_search_agree_on_determined_states():
    for psi in determined_corpus():
        face = face_check(psi)
        assert (face.null_dim, face.step) == (0, 0.0), psi.n
        assert search_max_tmax(psi.projector(), restarts=8, seed=0) <= 1e-6


def test_certified_bound_holds_along_sampled_directions():
    rng = np.random.default_rng(8)
    for psi in list(determined_corpus())[:5]:
        assert face_check(psi).null_dim == 0
        for _ in range(5):
            d = direction_from_coeffs(psi.n, rng.standard_normal(3**psi.n))
            tm, tp = tmax_along(psi.projector(), d)
            assert max(tp, -tm) <= 1e-8


def test_verdict_uses_certificate_on_determined_states():
    # the face check proves both determined: k = 2 with N = {0} for the W
    # state, k = 1 (a gapped K) for the Haar state
    for psi, k in ((rotated(w_state(4), 9), 2), (haar_random_state(4, 9), 1)):
        v = determinedness(psi, restarts=64, seed=0)
        assert v.determined is True
        assert v.anomaly is None
        assert v.cross_check == "face"
        assert (v.face.kernel_dim, v.face.null_dim) == (k, 0)
        assert v.samples_used == 0
        assert v.parent_gap == v.face.gap
        assert (v.parent_gap > 0.01) == (k == 1)
        assert v.numeric_sup_tmax == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ghz_gets_no_certificate_and_search_runs(n):
    psi = rotated_ghz(n, 4400 + n)
    face = face_check(psi)
    assert face.gap <= 1e-8
    assert face.null_dim > 0
    v = determinedness(psi, restarts=1, seed=0)
    assert v.determined is False
    assert v.anomaly is None
    assert v.cross_check == "face"
    assert v.samples_used > 0
    assert v.parent_gap == face.gap
    assert v.numeric_sup_tmax > 0.1


def test_search_fallback_still_flags_a_misclassified_ghz(monkeypatch):
    psi = make_ghz(3, np.sqrt(0.7), np.sqrt(0.3))

    def says_not_ghz(psi, tol=1e-8):
        return GhzCertificate(False, False, 0.5)

    monkeypatch.setattr(compat, "detect_ghz_type", says_not_ghz)
    v = determinedness(psi, restarts=1, seed=0)
    assert v.determined is True
    assert v.cross_check == "face"
    assert v.numeric_sup_tmax > 0.1
    assert v.anomaly.startswith("theorem says determined")


@pytest.mark.parametrize("n, seed", [(3, 4500), (4, 4404)])
def test_face_check_flags_a_misclassified_rotated_ghz(monkeypatch, n, seed):
    # a random-restart search finds no step on these rotated states unless
    # the detector hands it the witness directions; the face check needs no
    # help from the detector
    not_ghz = GhzCertificate(False, False, 0.5)
    monkeypatch.setattr(compat, "detect_ghz_type",
                        lambda psi, tol=1e-8: not_ghz)
    v = determinedness(rotated_ghz(n, seed))
    assert v.determined is True
    assert v.cross_check == "face"
    assert v.numeric_sup_tmax > 0.1
    assert v.anomaly.startswith("theorem says determined but the face check")


def test_verdict_never_runs_the_search(monkeypatch):
    # nor the full-weight word stack and the 2^n x 2^n segment it feeds:
    # the face check steps in the face's own k x k coordinates
    for name in ("search_max_tmax", "_word_stack", "direction_from_matrix",
                 "tmax_along"):
        def fail(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(compat, name, fail)
    two_qubit = PureState(2, np.array([0.9, 0, 0, np.sqrt(0.19)],
                                      dtype=complex))
    for psi in (rotated_ghz(3, 4403), haar_random_state(3, 4404),
                rotated_ghz(4, 4405), rotated_ghz(5, 4406),
                rotated(make_ghz(4, INV_SQRT2, INV_SQRT2), 4407),
                rotated(two_qubit, 4408)):
        v = determinedness(psi)
        assert v.anomaly is None


def test_ghz_verdict_builds_no_rdm_tuple(monkeypatch):
    # the witness residual compares psi's RDMs with the fit's in factored
    # form, so no RDM tuple and no witness member is built
    calls = []

    def counted(rho):
        calls.append(rho)
        return ptr_tuple(rho)

    def fail(self, z):
        raise AssertionError("member called")

    monkeypatch.setattr(compat, "ptr_tuple", counted)
    monkeypatch.setattr(compat.WitnessFamily, "member", fail)
    v = determinedness(rotated_ghz(4, 4409))
    assert v.determined is False
    assert v.anomaly is None
    assert len(calls) == 0


@pytest.mark.parametrize("psi", witness_cases())
def test_factored_witness_residual_matches_the_dense_one(psi):
    v = determinedness(psi)
    dense = rdm_max_distance(ptr_tuple(v.witness_family.member(0.0)),
                             ptr_tuple(psi.projector()))
    assert abs(v.witness_rdm_residual - dense) <= 1e-13


@pytest.mark.parametrize("kind", ["haar", "w"])
def test_determined_verdict_memory_is_linear_in_the_state(kind):
    # nothing of size 2^n x 2^n: a dense 64 x 64 matrix alone is 64 times
    # psi's 1 KB of amplitudes at n=6
    psi = (haar_random_state(6, 5102) if kind == "haar"
           else rotated(w_state(6), 5103))
    determinedness(psi)             # fill the per-n caches first
    tracemalloc.start()
    try:
        v = determinedness(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.determined is True and v.anomaly is None
    assert peak < 128 * psi.amps.nbytes


def test_face_check_never_validates_psi_projector(monkeypatch):
    psi = rotated_ghz(4, 4410)

    def fail(self):
        raise AssertionError("projector called")

    monkeypatch.setattr(PureState, "projector", fail)
    face = face_check(psi)
    assert (face.kernel_dim, face.null_dim) == (2, 2)
    assert isinstance(face.compatible, DensityMatrix)


def test_certificate_on_a_ghz_verdict_is_an_anomaly(monkeypatch):
    # a face with k = 1 proves psi determined, which contradicts the
    # detector's GHZ verdict
    psi = rotated_ghz(3, 4600)
    fake = compat.FaceCheck(1, 0, 1.0, 0.0, 0.5, 0.0, 0,
                            psi.amps[:, None])
    monkeypatch.setattr(compat, "face_check", lambda psi: fake)
    v = determinedness(psi, restarts=1, seed=0)
    assert v.determined is False
    assert v.cross_check == "face"
    assert v.samples_used == 0
    assert v.numeric_sup_tmax == 0.0
    assert v.parent_gap == 0.5
    assert v.anomaly == ("theorem says undetermined but the face check "
                         "found no compatible state (largest step "
                         "0.000e+00, kernel dim 1, null dim 0)")


def test_every_anomaly_is_kept(monkeypatch):
    # a GHZ certificate of another state, patched in over a W state, trips
    # both the cross-check and the witness-family residual
    ghz_cert = compat.detect_ghz_type(make_ghz(3, np.sqrt(0.7), np.sqrt(0.3)))
    monkeypatch.setattr(compat, "detect_ghz_type",
                        lambda psi, tol=1e-8: ghz_cert)
    v = determinedness(w_state(3), restarts=1, seed=0)
    assert v.determined is False
    assert v.cross_check == "face"
    assert v.anomaly.startswith("theorem says undetermined but the face "
                                "check found no compatible state")
    assert "; witness family RDM residual" in v.anomaly


# ----------------------------------------------------------------- face check

def ghz_corpus():
    for n in (3, 4, 5):
        for k in range(2):
            yield rotated_ghz(n, 4700 + 10 * n + k)
            yield rotated(make_ghz(n, np.sqrt(0.5), np.sqrt(0.5)),
                          4800 + 10 * n + k)


def test_face_of_a_rotated_ghz_state_has_k_2_and_dim_n_2():
    for psi in ghz_corpus():
        face = face_check(psi)
        assert (face.kernel_dim, face.null_dim) == (2, 2), psi.n
        assert face.directions == 2
        assert face.min_singular > 1.0
        assert abs(face.lambda_min) <= 1e-12
        assert face.step > 0.1


@pytest.mark.parametrize("a2", [0.5, 0.95, 0.99])
def test_face_check_steps_to_the_product_of_marginals_at_n2(a2):
    # at n=2 psi's supports are all of C^2, so k = 4; stepping along a basis of N alone finds
    # nothing at a2 = 0.95, the segment to rho_A (x) rho_B does
    amps = np.array([np.sqrt(a2), 0, 0, np.sqrt(1 - a2)], dtype=complex)
    psi = rotated(PureState(2, amps), 4900)
    face = face_check(psi)
    assert (face.kernel_dim, face.null_dim, face.directions) == (4, 9, 10)
    rho = psi.projector().mat
    product = np.kron(partial_trace_matrix(rho, 2, {2}),
                      partial_trace_matrix(rho, 2, {1}))
    assert face.step >= np.linalg.norm(product - rho) - 1e-9


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_face_check_proves_near_ghz_states_determined(n, eps):
    amps = (make_ghz(n, np.sqrt(0.7), np.sqrt(0.3)).amps
            + eps * haar_random_state(n, 4950 + n).amps)
    psi = rotated(PureState(n, amps / np.linalg.norm(amps)), 4960 + n)
    v = determinedness(psi)
    assert v.determined is True
    assert v.anomaly is None
    assert v.cross_check == "face"
    assert v.face.null_dim == 0
    assert v.numeric_sup_tmax == 0.0
    assert v.samples_used == 0


def test_face_check_returns_a_compatible_state():
    two_qubit = PureState(2, np.array([0.9, 0, 0, np.sqrt(0.19)],
                                      dtype=complex))
    for psi in (rotated_ghz(3, 4501), rotated_ghz(4, 4502),
                rotated(two_qubit, 4503)):
        face = face_check(psi)
        omega = face.compatible
        assert np.linalg.eigvalsh(omega.mat)[0] >= -1e-9
        require_equal_rdms(ptr_tuple(omega), ptr_tuple(psi.projector()))
        moved = np.linalg.norm(omega.mat - psi.projector().mat)
        assert abs(moved - face.step) <= 1e-9
        if psi.n > 2:
            # at k = 2 the far end of the segment is the paper's pure
            # partner: rank one and distinct from psi
            assert numeric_rank(omega.mat) == 1
            partner = np.linalg.eigh(omega.mat)[1][:, -1]
            assert abs(np.vdot(psi.amps, partner)) < 1 - 1e-8


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
