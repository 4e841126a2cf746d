"""RDM-preserving perturbation directions and the determinedness verdict.

The Hermitian perturbations with all n single-qubit partial traces equal
to zero are exactly the real span of the 3^n full-weight Pauli words
(every letter in {X, Y, Z}).  A state rho is undetermined by its RDMs iff
rho + t*Delta stays PSD for some nonzero t and Delta in that span; the
rigorous verdict comes from the GHZ-type theorem, and the numerics here
are an independent cross-check, not the decision procedure.

`determinedness` runs one cross-check on every conclusive verdict,
`face_check`: an exact check on the face of the state space that psi's
local supports leave to the compatible states.  A state with psi's
(n-1)-RDMs has its range in G, the intersection over j of
C^2_j (x) supp rho_(j); G is the kernel of a frustration-free parent
Hamiltonian and has dimension k <= 4.  The compatible states are
psi psi^dag + X >= 0 with X Hermitian on G and every one-qubit-removed
partial trace of X zero: a linear problem in k^2 real unknowns.  Its null
space N = {0} proves psi determined (`numeric_sup_tmax` 0.0; k = 1 always
does); otherwise stepping from psi psi^dag along candidate directions in
N, in G's k x k coordinates, gives an explicit compatible state.  Each
step is the exact end of the PSD segment (`qstate.psd_segment`, the
package's one PSD-boundary routine, which the search and the partner
construction share), `numeric_sup_tmax` is the largest step found, and
`samples_used` counts the directions stepped.  No random number is
involved, the check never reads the detector's output, and it costs
O(n 2^n): it works on psi's 2 x 2^(n-1) amplitude matrices.

On a GHZ-type verdict, `witness_rdm_residual` compares psi's RDMs with
those of the witness family's z = 0 member, in factored form.  Every
member has that member's RDMs: its z-dependent term
z a conj(b) |u^><v^| + h.c. (with u^ and v^ the products of the
certificate's local bases) vanishes under each one-qubit partial trace,
since tr_j |u^><v^| = <v_j|u_j> * (x)_{k != j} |u_k><v_k| and the
detector returns u_j orthogonal to v_j (see `determinedness`).

`search_max_tmax`, a seeded random-restart search for the largest
feasible step, is kept as a library function and as the tests'
independent reference, and the benchmark's trace wraps it by name; no
verdict calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .ghz import GhzCertificate, GhzParams, detect_ghz_type, ghz_family
from .qstate import (DensityMatrix, EigDecomposition, PauliWord, PureState,
                     ValidationError, hermitian_eig, psd_segment)
from .rdm import (RDM_EQUAL_TOL, RdmTuple, partial_trace_matrix, ptr_tuple,
                  require_equal_rdms)

# Eigenvectors of K (H_ff compressed to V_1, see `face_check`) below
# FACE_KERNEL_CUT span the face G.  On rotated GHZ states at n = 3..6, K's
# two kernel eigenvalues lie below 1e-14 and the next one at 2.0 or above.
# Near a GHZ state, at distance eps, the second eigenvalue is about
# 3.6 eps^2 at n=4 and 6.5 eps^2 at n=5 (it is 0 at n=3, where k = 2 for
# every state), so it enters G once eps < ~5e-5, where N is still {0} (its
# system's smallest singular value is ~eps, far above FACE_NULL_CUT).  A
# larger G only admits more candidate states, so the cut errs on the safe
# side.
FACE_KERNEL_CUT = 1e-8
# Singular values of the face's partial-trace system below FACE_NULL_CUT
# span N.  On rotated GHZ states at n = 3..6 they lie below 2e-15 and the
# others at 1.7 or above; on Haar states at n = 3 and rotated W states at
# n = 3..6, which have k = 2, all lie above 0.26.
# Near a GHZ state the smallest falls linearly in eps, as the detector's
# residual does, so the cut sits at the detector's DETECT_TOL and both
# draw the GHZ boundary at about the same eps.
FACE_NULL_CUT = 1e-8
CROSS_CHECK_NMAX = 6    # the verdict's limit; `compatible` is 2^n x 2^n


@dataclass(frozen=True)
class FullWeightBasis:
    """All 3^n Pauli words with no identity letter."""

    n: int
    words: tuple

    @property
    def count(self) -> int:
        return len(self.words)


@lru_cache(maxsize=None)
def fullweight_basis(n: int) -> FullWeightBasis:
    if not 2 <= n <= 8:
        raise ValidationError(f"n must be in 2..8, got {n}")
    words = tuple(PauliWord("".join(c))
                  for c in itertools.product("XYZ", repeat=n))
    if n <= 4:
        for w in words:
            m = w.matrix()
            for j in range(1, n + 1):
                res = float(np.linalg.norm(partial_trace_matrix(m, n, [j])))
                if res > 1e-12:
                    raise ValidationError(
                        f"word {w.letters} has nonzero trace over qubit {j}")
    return FullWeightBasis(n, words)


@lru_cache(maxsize=4)
def _word_stack(n: int) -> np.ndarray:
    """Stacked matrices of the full-weight words, shape (3^n, 2^n, 2^n)."""
    if n > 6:
        raise ValidationError("word stack is only materialized for n <= 6")
    basis = fullweight_basis(n)
    d = 2**n
    out = np.empty((basis.count, d, d), dtype=complex)
    for i, w in enumerate(basis.words):
        out[i] = w.matrix()
    out.flags.writeable = False
    return out


def _batched_max_boundary(rho: np.ndarray, mats: np.ndarray,
                          best: float) -> tuple[float, int]:
    """Max over directions (both signs) of the PSD boundary step, capped at 2.

    Returns (value, winner) where winner indexes into mats (-1 if no
    direction beat `best`).
    """
    t_minus, t_plus = psd_segment(rho, mats)
    ends = np.minimum(np.maximum(t_plus, -t_minus), 2.0)
    top = int(np.argmax(ends))
    if ends[top] <= best:
        return best, -1
    return float(ends[top]), top


def _pair_directions(n: int) -> np.ndarray:
    """Sparse in-span directions: off-diagonals between complementary indices.

    |x><y| + h.c. lies in the full-weight span exactly when y is the
    bitwise complement of x; these (plus Z...Z, already a basis word) are
    the only sparse elements and the ones a rank-deficient state can
    actually move along, so they make good deterministic seeds.
    """
    d = 2**n
    out = np.zeros((d, d, d), dtype=complex)
    k = 0
    for x in range(d // 2):
        y = d - 1 - x
        out[k, x, y] = 1 / np.sqrt(2)
        out[k, y, x] = 1 / np.sqrt(2)
        k += 1
        out[k, x, y] = 1j / np.sqrt(2)
        out[k, y, x] = -1j / np.sqrt(2)
        k += 1
    return out[:k]


def search_max_tmax(rho: DensityMatrix, restarts: int, seed: int) -> float:
    """Largest feasible RDM-preserving step found by heuristic search.

    Deterministic in (rho, restarts, seed).  Candidates: the sparse
    complementary-pair directions, all 3^n basis words, then `restarts`
    random unit directions each refined by batched coordinate ascent with
    a shrinking step.  Each step is `qstate.psd_segment`'s exact boundary,
    capped at 2.
    """
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    n = rho.n
    stack = _word_stack(n)
    norm_words = stack / np.sqrt(2**n)
    best, _ = _batched_max_boundary(rho.mat, _pair_directions(n), 0.0)
    best, _ = _batched_max_boundary(rho.mat, norm_words, best)

    def build_one(coeffs):
        mat = np.tensordot(coeffs, stack, axes=1)
        return mat / (np.linalg.norm(coeffs) * np.sqrt(2**n))

    dim = 3**n
    eye = np.eye(dim)
    for r in range(restarts):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, r])
        c = rng.standard_normal(dim)
        c /= np.linalg.norm(c)
        value, _ = _batched_max_boundary(rho.mat, build_one(c)[None], 0.0)
        step = 0.5
        for _ in range(3):  # coordinate-ascent sweeps
            # each candidate matrix is base +- step * word_i, so broadcast
            # rather than re-expanding every coefficient row
            cand = np.concatenate([c[None] + step * eye,
                                   c[None] - step * eye])
            nrm = np.linalg.norm(cand, axis=1)
            base = np.tensordot(c, stack, axes=1)
            mats = np.concatenate([base[None] + step * stack,
                                   base[None] - step * stack])
            mats /= (nrm * np.sqrt(2**n))[:, None, None]
            cand /= nrm[:, None]
            sweep_best, winner = _batched_max_boundary(rho.mat, mats, value)
            if winner >= 0 and sweep_best > value + 1e-12:
                c = cand[winner]
                value = sweep_best
            else:
                step *= 0.5
        best = max(best, value)
    return best


@dataclass(frozen=True)
class WitnessFamily:
    """The GHZ family disk transported through a certificate's local bases."""

    params: GhzParams
    local_bases: list = field(repr=False)

    def member(self, z: complex) -> DensityMatrix:
        raw = ghz_family(self.params, z)
        u = np.ones((1, 1), dtype=complex)
        for (uk, vk) in self.local_bases:
            u = np.kron(u, np.stack([uk, vk], axis=1))
        return DensityMatrix(self.params.n, u @ raw.mat @ u.conj().T)


@dataclass(frozen=True)
class FaceCheck:
    """What the face check found on G, the face of psi's local supports.

    `kernel_dim` is k = dim G and `kernel` holds an orthonormal basis of G
    as columns.  `lambda_min` and `gap` are the two lowest eigenvalues of
    K, the frustration-free H_ff compressed to V_1 (see `face_check`):
    lambda_min ~ 0 belongs to psi, and gap ~ 0 exactly when k >= 2.
    `null_dim` is dim N and `min_singular` the smallest singular value of
    the partial-trace system above FACE_NULL_CUT.  `step` is the largest
    RDM-preserving step found along the `directions` candidates, 0.0 when
    N = {0} proves that there is none.  `compatible` is psi psi^dag moved
    by that step, or None when no step was taken.  It is PSD on G, and its
    partial traces differ from psi's by at most `step` times the system's
    singular values counted as zero (below FACE_NULL_CUT; about 1e-15 on
    exact GHZ states).
    """

    kernel_dim: int
    null_dim: int
    min_singular: float
    lambda_min: float
    gap: float
    step: float
    directions: int
    kernel: np.ndarray = field(repr=False)
    compatible: DensityMatrix | None = field(default=None, repr=False)


@lru_cache(maxsize=None)
def _hermitian_basis(k: int) -> np.ndarray:
    """Frobenius-orthonormal real basis of the k x k Hermitian matrices."""
    out = np.zeros((k * k, k, k), dtype=complex)
    for i in range(k):
        out[i, i, i] = 1.0
    m = k
    for i, j in itertools.combinations(range(k), 2):
        out[m, i, j] = out[m, j, i] = 1 / np.sqrt(2)
        out[m + 1, i, j] = 1j / np.sqrt(2)
        out[m + 1, j, i] = -1j / np.sqrt(2)
        m += 2
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _split_index(n: int) -> np.ndarray:
    """Flat indices of the amplitude matrices M_j, shape (n, 2, 2^(n-1)).

    v[_split_index(n)][j - 1] is v as a 2 x 2^(n-1) matrix with qubit j
    as the row index and the other qubits, in order, as the column index.
    """
    low = 2 ** (n - np.arange(1, n + 1))[:, None, None]      # 2^(n-j)
    rest = np.arange(2 ** (n - 1))
    out = (rest // low) * 2 * low + np.arange(2)[:, None] * low + rest % low
    out.flags.writeable = False
    return out


def face_check(psi: PureState) -> FaceCheck:
    """Find the states with psi's RDMs on the face of its local supports.

    Why the face holds every compatible state.  psi's RDM with qubit j
    traced out is rho_(j) = M_j^T conj(M_j), M_j being psi's 2 x 2^(n-1)
    amplitude matrix with qubit j as the row index, so its support S_j is
    M_j's row space and dim S_j <= 2.  A state rho with psi's RDMs has
    tr_j rho = rho_(j), so its range lies in V_j = C^2_j (x) S_j for every
    j, hence in G, the intersection of the V_j.  G is the kernel of the
    frustration-free H_ff = sum_j I_j (x) (I - P_j), with P_j projecting
    onto S_j (Fannes, Nachtergaele and Werner, CMP 1992).  H_ff is PSD by
    construction, and G lies in V_1, whose dimension is at most 4.  So one
    batched thin SVD of the n matrices M_j gives every S_j (singular
    values at or below numpy's matrix-rank cut count as zero), and one
    `eigh` of K, H_ff compressed to V_1, gives G: K's eigenvectors below
    FACE_KERNEL_CUT.  Cost is O(n 2^n); no 2^n x 2^n matrix is formed
    unless a step is taken.

    So rho = psi psi^dag + X with X Hermitian on G and every
    one-qubit-removed partial trace of X zero.  For g_a, g_b in G, write
    g_a's M_j as C_a B_j, with the rows of B_j an orthonormal basis of S_j
    and C_a a 2 x 2 coordinate matrix.  Then tr_j |g_a><g_b| =
    B_j^T (C_a^T conj(C_b)) conj(B_j), so the 2 x 2 block C_a^T conj(C_b)
    has the partial trace's Frobenius norm.  Writing X over the k^2
    Hermitian basis elements of G makes the constraints a real linear
    system of shape (8n) x k^2, and one thin SVD gives its null space N.

    * N = {0}: psi psi^dag is the only compatible state, so psi is
      determined, and `step` is 0.0.  k = 1 always lands here.
    * Otherwise every basis element of N is an RDM-preserving direction.
      Each is normalised to unit Frobenius norm and stepped in G's k x k
      coordinates: `qstate.psd_segment` gives the exact ends of the
      segment of t with rho_G + t x >= 0, where rho_G is psi psi^dag on
      G, and psi psi^dag + t g x g^dag is an explicit compatible state.
      For k = 2, G = span(psi, psi') with psi' orthogonal to psi.  A
      nonzero X in N is traceless, so psi psi^dag + t X is PSD for some
      t != 0 iff c = <psi'|X|psi'> != 0, and then the far end is
      t = c / (c^2 + |<psi|X|psi'>|^2), where the state is rank one: the
      paper's pure partner (`construct`'s root a*).  A compatible state
      other than psi psi^dag therefore exists iff that functional is
      nonzero on N, hence on one of N's basis elements: stepping along
      each basis element is exact.
    * For k > 2 (an entangled psi at n = 2 has k = 4) the candidates also
      include the projection onto N of rho_1 (x) ... (x) rho_n -
      psi psi^dag, where rho_j = M_j M_j^dag are psi's one-qubit RDMs.  At
      n = 2 that matrix is already in N, and every point of the segment
      to it is a state.
    """
    n = psi.n
    index = _split_index(n)
    mats = psi.amps[index]
    _, svals, vh = np.linalg.svd(mats, full_matrices=False)
    keep = svals > svals[:, :1] * (2 ** (n - 1) * np.finfo(float).eps)
    s1 = vh[0, keep[0]]
    v1 = np.zeros((2 * len(s1), 2**n), dtype=complex)  # rows span V_1
    v1[:len(s1), :2 ** (n - 1)] = v1[len(s1):, 2 ** (n - 1):] = s1
    # row p holds C for v1's row p at every j; rows of vh outside S_j are
    # zeroed, so they add nothing
    coords = (v1[:, index] @ (vh * keep[..., None]).conj().swapaxes(1, 2)
              ).reshape(len(v1), -1)
    # K_pq = sum_j (delta_pq - <p| I_j (x) P_j |q>), so K is n I minus the
    # Gram matrix of the rows of coords
    evals, evecs = np.linalg.eigh(-coords.conj() @ coords.T)
    evals += n
    y = evecs[:, evals < FACE_KERNEL_CUT]
    g = v1.T @ y                        # G's orthonormal basis as columns
    k = g.shape[1]
    c = (y.T @ coords).reshape(k, n, 2, 2)
    basis = _hermitian_basis(k)
    traces = np.einsum("mab,ajis,bjit->mjst", basis, c, c.conj())
    # rows are the real and imaginary parts of every block entry
    system = traces.reshape(k * k, -1).view(float).T
    _, svals, vt = np.linalg.svd(system, full_matrices=False)
    null = vt[svals <= FACE_NULL_CUT]
    candidates = list(null)
    if k > 2 and len(null):
        rho = np.outer(psi.amps, psi.amps.conj())
        product = reduce(np.kron, mats @ mats.conj().swapaxes(1, 2))
        # the basis elements are Hermitian and orthonormal, so the
        # coefficients of a Hermitian matrix M are tr(B_m g^dag M g)
        coeffs = np.real(np.einsum("mab,ba->m", basis,
                                   g.conj().T @ (product - rho) @ g))
        coeffs = null.T @ (null @ coeffs)
        if np.linalg.norm(coeffs) > FACE_NULL_CUT:
            candidates.append(coeffs)
    step, compatible = 0.0, None
    if candidates:
        # g has orthonormal columns, so a unit c is a unit-norm g x g^dag
        cs = np.array(candidates)
        xs = np.tensordot(cs / np.linalg.norm(cs, axis=1)[:, None], basis,
                          axes=1)
        on_g = g.conj().T @ psi.amps
        ends = np.stack(psd_segment(np.outer(on_g, on_g.conj()), xs),
                        axis=1).ravel()
        top = int(np.argmax(np.abs(ends)))
        if ends[top] != 0.0:
            step = abs(float(ends[top]))
            compatible = DensityMatrix(
                n, np.outer(psi.amps, psi.amps.conj())
                + ends[top] * (g @ xs[top // 2] @ g.conj().T))
    return FaceCheck(
        k, len(null), float(np.min(svals[svals > FACE_NULL_CUT])),
        float(evals[0]), float(evals[1]), step, len(candidates), g,
        compatible)


@dataclass(frozen=True)
class CompatVerdict:
    determined: bool | None          # None when inconclusive
    ghz_certificate: GhzCertificate
    witness_family: WitnessFamily | None
    numeric_sup_tmax: float
    samples_used: int
    anomaly: str | None = None
    witness_rdm_residual: float | None = None
    parent_gap: float | None = None  # the face's gap; None when it did not run
    cross_check: str | None = None   # "face", or None when it did not run
    face: FaceCheck | None = None    # None unless the face check ran


def _witness_residual(psi: PureState, cert: GhzCertificate) -> float:
    """Max over j of the Frobenius distance between psi's and the fit's RDMs.

    The fit is a u^ + b v^, with u^ and v^ the products of the
    certificate's local bases; its RDMs are the z = 0 member's (see
    `determinedness`).  With W_j stacking the rows of psi's and the fit's
    M_j, one batched QR W_j^T = Q R (R at most 4 x 4) gives M_j^T = Q R_M
    and the fit's M_j^T = Q R_F, so the distance between the RDMs
    M_j^T conj(M_j) is ||R_M R_M^dag - R_F R_F^dag||_F, taken entry by
    entry: no cancellation between two large norms.
    """
    us, vs = zip(*cert.local_bases)
    fit = (cert.params.a * reduce(np.multiply.outer, us)
           + cert.params.b * reduce(np.multiply.outer, vs)).ravel()
    index = _split_index(psi.n)
    rows = np.concatenate([psi.amps[index], fit[index]], axis=1)
    r = np.linalg.qr(rows.swapaxes(1, 2), mode="r")
    ours, fits = r[..., :2], r[..., 2:]
    diff = (ours @ ours.conj().swapaxes(1, 2)
            - fits @ fits.conj().swapaxes(1, 2))
    return float(np.max(np.linalg.norm(diff, axis=(1, 2))))


def determinedness(psi: PureState, tol: float = 1e-8,
                   restarts: int = 64, seed: int = 0) -> CompatVerdict:
    """Is psi the unique state (pure or mixed) with its RDM tuple?

    The verdict follows the GHZ-type theorem: determined iff psi is not
    GHZ-type.  An independent numeric cross-check follows on every
    conclusive verdict: the face check on psi's local supports (see the
    module docstring and `face_check`).  It is deterministic, so
    `restarts` and `seed` no longer move the result; `restarts` is still
    validated (>= 1).  Disagreement is reported as an anomaly, never
    silently reconciled; several anomalies are joined with "; " in the
    order they are found.

    Why one witness member suffices.  In the certificate's local bases,
    with |u^> = |u_1 ... u_n> and |v^> = |v_1 ... v_n>, the member at z is
    |a|^2 |u^><u^| + |b|^2 |v^><v^| + z a conj(b) |u^><v^| + h.c.  Its
    only z-dependent term vanishes under every one-qubit partial trace:

        tr_j |u^><v^| = <v_j|u_j> * (x)_{k != j} |u_k><v_k| = 0

    for every j and every n >= 2, because u_j is orthogonal to v_j.  The
    detector returns orthogonal pairs on both of its branches: in the
    gapped branch they are `eigh` eigenvectors of one single-qubit RDM,
    and in the degenerate branch `_orthogonalize` makes each v_j
    orthogonal to u_j.  So every member, and the fit a u^ + b v^ itself,
    has the z = 0 member's RDM tuple, and `witness_rdm_residual` compares
    psi's RDMs with the fit's in factored form (`_witness_residual`).
    """
    if not 2 <= psi.n <= CROSS_CHECK_NMAX:
        raise ValidationError(
            f"n must be in 2..{CROSS_CHECK_NMAX}, got {psi.n}")
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    cert = detect_ghz_type(psi, tol)
    if cert.inconclusive:
        return CompatVerdict(None, cert, None, float("nan"), 0)
    family = None
    witness_res = None
    if cert.is_ghz:
        family = WitnessFamily(cert.params, cert.local_bases)
        witness_res = _witness_residual(psi, cert)
    face = face_check(psi)
    sup = face.step
    determined = not cert.is_ghz
    anomalies = []
    if determined and sup > 1e-4:
        anomalies.append(f"theorem says determined but the face check "
                         f"found a compatible state at step {sup:.3e}")
    if not determined and not sup >= 1e-6:
        anomalies.append(f"theorem says undetermined but the face check "
                         f"found no compatible state (largest step "
                         f"{sup:.3e}, kernel dim {face.kernel_dim}, null "
                         f"dim {face.null_dim})")
    if witness_res is not None and witness_res > RDM_EQUAL_TOL:
        anomalies.append(f"witness family RDM residual {witness_res:.3e} "
                         f"exceeds {RDM_EQUAL_TOL:.0e}")
    return CompatVerdict(determined, cert, family, sup, face.directions,
                         "; ".join(anomalies) or None, witness_res,
                         face.gap, "face", face)


def rank2_check(psi: PureState, omega: DensityMatrix) -> bool:
    """Does a mixed RDM-partner of a pure state have rank exactly 2?

    The theorem says yes for every valid input; a False return is a
    theorem-violation flag, not a normal outcome.
    """
    return rank2_given(ptr_tuple(psi.projector()), omega,
                       hermitian_eig(omega.mat))


def rank2_given(psi_rdms: RdmTuple, omega: DensityMatrix,
                dec: EigDecomposition) -> bool:
    """rank2_check from psi's RDM tuple and omega's eigendecomposition.

    For a caller that already holds both: the RDM tuples must match, then
    omega's rank is read off dec at `EigDecomposition.rank`'s default cut
    (eigenvalues above 1e-8), the one rank cut for omega.
    """
    require_equal_rdms(psi_rdms, ptr_tuple(omega))
    rank = dec.rank()
    if rank < 2:
        raise ValidationError("omega is pure; the check needs a mixed state")
    return rank == 2
