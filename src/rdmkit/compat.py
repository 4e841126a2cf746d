"""RDM-preserving perturbation directions and the determinedness verdict.

The Hermitian perturbations with all n single-qubit partial traces equal
to zero are exactly the real span of the 3^n full-weight Pauli words
(every letter in {X, Y, Z}).  A state rho is undetermined by its RDMs iff
rho + t*Delta stays PSD for some nonzero t and Delta in that span; the
rigorous verdict comes from the GHZ-type theorem, and the numerics here
are an independent cross-check, not the decision procedure.

`determinedness` runs two cross-checks, in this order:

1. `parent_hamiltonian`: a Hamiltonian H built only from Pauli words with
   an identity letter, with H psi ~ 0 and a positive second eigenvalue.
   Such an H is a checkable proof that psi is determined; it bounds every
   RDM-preserving step.  When that bound is at most CERTIFY_TMAX,
   `numeric_sup_tmax` is the certified upper bound, `samples_used` is 0,
   and the face check is skipped.
2. `face_check`, otherwise: an exact check on the face of the state space
   that H leaves to the compatible states.  tr(H rho) is fixed by rho's
   (n-1)-RDMs, so when H >= 0 and H psi = 0 every compatible rho lives on
   G = ker H, and the compatible states are psi psi^dag + X >= 0 with X
   Hermitian on G and every one-qubit-removed partial trace of X zero.
   That is a linear problem in k^2 real unknowns, k = dim G.  Its null
   space N = {0} proves psi determined (`numeric_sup_tmax` 0.0);
   otherwise stepping from psi psi^dag along candidate directions in N,
   in G's k x k coordinates, gives an explicit compatible state.  Each
   step is the exact end of the PSD segment (`qstate.psd_segment`, the
   package's one PSD-boundary routine, which `tmax_along`, the search
   and the partner construction share), `numeric_sup_tmax` is the
   largest step found, and `samples_used` counts the directions stepped.
   No random number is involved and the check never reads the
   detector's output.

On a GHZ-type verdict, `witness_rdm_residual` compares psi's RDM tuple
with that of the witness family's z = 0 member only.  Every member has
that member's RDMs: its z-dependent term z a conj(b) |u^><v^| + h.c.
(with u^ and v^ the products of the certificate's local bases) vanishes
under each one-qubit partial trace, since tr_j |u^><v^| = <v_j|u_j> *
(x)_{k != j} |u_k><v_k| and the detector returns u_j orthogonal to v_j
(see `determinedness`).

GHZ-type states never have a certificate (their RDMs admit other
states), so they always reach the face check.  A parent Hamiltonian is
sufficient but not necessary, so a missing one is never an anomaly on its
own.  `search_max_tmax`, a seeded random-restart search for the largest
feasible step, is kept as a library function; no verdict calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ghz import GhzCertificate, GhzParams, detect_ghz_type, ghz_family
from .qstate import (DensityMatrix, EigDecomposition, PauliWord, PureState,
                     ValidationError, hermitian_eig, psd_segment)
from .rdm import (RDM_EQUAL_TOL, RdmTuple, partial_trace_matrix, ptr_tuple,
                  rdm_max_distance, require_equal_rdms)

CERTIFY_TMAX = 1e-6     # a certified bound this small skips the face check
# H's eigenvectors below FACE_KERNEL_CUT span the face G.  On exact GHZ
# states H's two kernel eigenvalues lie below 1e-14 and the next one above
# 0.85.  Near a GHZ state, at distance eps, the second eigenvalue falls as
# eps^2 and enters G once eps < ~1e-4, where N is still {0} (its system's
# smallest singular value is ~eps, far above FACE_NULL_CUT).  A larger G
# only admits more candidate states, so the cut errs on the safe side.
FACE_KERNEL_CUT = 1e-8
# Singular values of the face's partial-trace system below FACE_NULL_CUT
# span N.  On exact GHZ states they lie below 1e-14 and the others above
# 1.7.  Near a GHZ state the smallest falls linearly in eps, as the
# detector's residual does, so the cut sits at the detector's DETECT_TOL
# and both draw the GHZ boundary at about the same eps.
FACE_NULL_CUT = 1e-8
CROSS_CHECK_NMAX = 6    # the cross-checks are dense in 2^n x 2^n matrices


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


@dataclass(frozen=True)
class Direction:
    """Unit-Frobenius-norm Hermitian element of the full-weight span."""

    n: int
    coeffs: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)


def direction_from_coeffs(n: int, coeffs) -> Direction:
    """Build a unit-norm direction from raw real coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (3**n,):
        raise ValidationError(f"expected {3**n} coefficients")
    nrm = float(np.linalg.norm(c)) * np.sqrt(2**n)  # words are orthogonal
    if nrm < 1e-300:
        raise ValidationError("zero direction")
    c = c / nrm
    mat = np.tensordot(c, _word_stack(n), axes=1)
    return Direction(n, c, mat)


def coeffs_of_matrix(n: int, mat: np.ndarray) -> np.ndarray:
    """Real coefficients of a Hermitian matrix over the full-weight words."""
    stack = _word_stack(n)
    return np.real(np.einsum("kij,ji->k", stack, mat)) / 2**n


def direction_from_matrix(n: int, mat: np.ndarray) -> Direction:
    """Project a Hermitian matrix onto the span and normalize.

    Rejects input whose out-of-span component exceeds 1e-8 of its norm.
    """
    c = coeffs_of_matrix(n, mat)
    back = np.tensordot(c, _word_stack(n), axes=1)
    out_of_span = float(np.linalg.norm(mat - back)) / max(
        float(np.linalg.norm(mat)), 1e-300)
    if out_of_span > 1e-8:
        raise ValidationError(
            f"matrix is not in the full-weight span: residual {out_of_span:.3e}")
    return direction_from_coeffs(n, c)


def tmax_along(rho: DensityMatrix, d: Direction) -> tuple[float, float]:
    """(t_minus, t_plus): extent of the PSD segment along one direction.

    Every rho + t*Delta with t in [t_minus, t_plus] keeps rho's RDM tuple
    (the direction has all single-qubit partial traces zero).  The ends
    are `qstate.psd_segment`'s exact ones, capped to [-2, 2].
    """
    if rho.n != d.n:
        raise ValidationError("dimension mismatch")
    t_minus, t_plus = psd_segment(rho.mat, d.matrix)
    return max(t_minus, -2.0), min(t_plus, 2.0)


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


@lru_cache(maxsize=None)
def _local_word_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit tables of the 4^n - 3^n Pauli words with an identity letter.

    A word is an x-mask a and a z-mask b over the qubits (letter I, X, Z
    or Y where the bit pair is 00, 10, 01 or 11), so that
    P_w|s> = i^{#Y} (-1)^{popcount(b & s)} |s ^ a>.  Returns
    (src, phase, flat), each of shape (4^n - 3^n, 2^n):
    (P_w psi)[x] = phase[w, x] * psi[src[w, x]], and flat[w, x] is the
    position of that entry, row x and column src[w, x], in the flattened
    2^n x 2^n matrix of P_w.
    """
    d = 2**n
    a, b = np.divmod(np.arange(d * d), d)
    keep = (a | b) != d - 1
    a, b = a[keep], b[keep]
    popcount = np.array([bin(k).count("1") for k in range(d)])
    x = np.arange(d)
    src = x[None, :] ^ a[:, None]
    sign = 1 - 2 * (popcount[b[:, None] & src] & 1)
    phase = np.array([1, 1j, -1, -1j])[popcount[a & b] % 4][:, None] * sign
    flat = x[None, :] * d + src
    for arr in (src, phase, flat):
        arr.flags.writeable = False
    return src, phase, flat


@dataclass(frozen=True)
class ParentHamiltonian:
    """A Hamiltonian in the identity-letter span and the step bound it proves.

    `matrix` is H, `gap` its second-smallest eigenvalue g, and `bound`
    the certified upper bound on every RDM-preserving step (infinite when
    g <= 0).  `certifies` says whether the bound is small enough to stand
    in for the face check.
    """

    matrix: np.ndarray = field(repr=False)
    gap: float
    bound: float

    @property
    def certifies(self) -> bool:
        return self.bound <= CERTIFY_TMAX


def parent_hamiltonian(psi: PureState) -> ParentHamiltonian:
    """Project I - |psi><psi| onto {H in V : H psi = 0}, and bound the steps.

    V is the real span of the 4^n - 3^n Pauli words with at least one
    identity letter.  The constraint H psi = 0 is linear in H's word
    coefficients: its real matrix stacks [Re; Im] of the vectors P_w psi,
    shape (2 * 2^n, 4^n - 3^n).  One thin SVD gives that matrix's row
    space; removing the row-space part from the coefficients of
    I - |psi><psi| (whose full-weight part is simply dropped, the words
    being orthogonal) leaves H, and one eigvalsh gives its spectrum.

    Why H bounds the step.  Every word in V is trace-orthogonal to every
    full-weight word, so tr(H Delta) = 0 for every RDM-preserving
    direction Delta.  Let rho = |psi><psi| + t Delta be PSD, with Delta
    traceless and of unit Frobenius norm, so |t| = ||rho - psi psi^dag||_F.
    Write eps = <psi|H|psi>, r = ||H psi||, lambda_min <= g for H's two
    lowest eigenvalues and phi its ground vector.  Then:

    * tr(H rho) = eps, since the Delta term vanishes.
    * With p = <phi|rho|phi> and tr rho = 1, tr(H rho) >= lambda_min p +
      g (1 - p), so 1 - p <= (|eps| + max(0, -lambda_min)) / g =: delta.
    * Fidelity 1 - delta with the pure phi gives
      ||rho - phi phi^dag||_1 <= 2 sqrt(delta).
    * The sin-theta theorem with shift 0: every eigenvalue of H but
      lambda_min lies at distance >= g from 0, so the angle theta between
      psi and phi has sin(theta) <= r / g, and
      ||phi phi^dag - psi psi^dag||_1 = 2 sin(theta) <= 2 r / g.

    The Frobenius norm is at most the trace norm, hence

        |t| <= 2 sqrt((|eps| + max(0, -lambda_min)) / g) + 2 r / g.

    Every quantity on the right is measured on the assembled H, so the
    bound holds whatever the SVD's rank cut-off.  A bound near zero says
    that psi is the unique ground state of H, so no other state, pure or
    mixed, shares its RDMs.
    """
    n = psi.n
    if not 2 <= n <= CROSS_CHECK_NMAX:
        raise ValidationError(f"n must be in 2..{CROSS_CHECK_NMAX}, got {n}")
    d = 2**n
    src, phase, flat = _local_word_tables(n)
    amps = psi.amps
    moved = phase * amps[src]                      # row w is P_w psi
    coeffs = -np.real(moved @ amps.conj()) / d     # of -|psi><psi| over V
    coeffs[0] += 1.0                               # word 0 is the identity
    constraint = np.concatenate([moved.real, moved.imag], axis=1).T
    _, svals, vt = np.linalg.svd(constraint, full_matrices=False)
    rank = int(np.sum(svals > svals[0] * max(constraint.shape)
                      * np.finfo(float).eps))
    row_space = vt[:rank]
    coeffs -= row_space.T @ (row_space @ coeffs)
    weights = (coeffs[:, None] * phase).ravel()
    h = (np.bincount(flat.ravel(), weights.real, d * d)
         + 1j * np.bincount(flat.ravel(), weights.imag, d * d)).reshape(d, d)
    evals = np.linalg.eigvalsh(h)
    lam_min, gap = float(evals[0]), float(evals[1])
    h_psi = h @ amps
    eps = float(np.real(np.vdot(amps, h_psi)))
    resid = float(np.linalg.norm(h_psi))
    if gap > 0:
        bound = (2 * np.sqrt((abs(eps) + max(0.0, -lam_min)) / gap)
                 + 2 * resid / gap)
    else:
        bound = float("inf")
    h.flags.writeable = False
    return ParentHamiltonian(h, gap, float(bound))


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
    """What the face check found on the kernel of a parent Hamiltonian.

    `kernel_dim` is k = dim G, `null_dim` is dim N, `min_singular` the
    smallest singular value of the partial-trace system above
    FACE_NULL_CUT and `lambda_min` H's lowest eigenvalue.  `step` is the
    largest RDM-preserving step found along the `directions` candidates:
    0.0 when N = {0} proves that there is none, NaN when N = {0} but H is
    not PSD within FACE_KERNEL_CUT, so that nothing is proved.
    `compatible` is psi psi^dag moved by that step, or None when no step
    was taken.  It is PSD on G, and its partial traces differ from psi's
    by at most `step` times the system's singular values counted as zero
    (below FACE_NULL_CUT; about 1e-15 on exact GHZ states).
    """

    kernel_dim: int
    null_dim: int
    min_singular: float
    lambda_min: float
    step: float
    directions: int
    compatible: DensityMatrix | None = field(default=None, repr=False)


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
    return out


def face_check(psi: PureState, parent: ParentHamiltonian) -> FaceCheck:
    """Find the states with psi's RDMs on the kernel of its parent H.

    Why the face holds every compatible state.  H lies in the span of the
    words with an identity letter, so tr(H rho) is fixed by rho's
    (n-1)-RDMs, and a state rho with psi's RDMs has tr(H rho) =
    <psi|H|psi> ~ 0.  When H >= 0, rho therefore lives on G, the span of
    H's eigenvectors below FACE_KERNEL_CUT (one `eigh`).  So rho =
    psi psi^dag + X with X Hermitian on G and every one-qubit-removed
    partial trace of X zero.  Writing X over the k^2 Hermitian basis
    elements of G makes that a real linear system of shape
    (n 4^(n-1) 2) x k^2; one thin SVD gives its null space N.

    * N = {0}: psi psi^dag is the only compatible state, so psi is
      determined, and `step` is 0.0.
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
    * For k > 2 (at n = 2 H is 0 and k = 4) the candidates also include
      the projection onto N of rho_1 (x) ... (x) rho_n - psi psi^dag,
      where rho_j are psi's one-qubit RDMs.  At n = 2 that matrix is
      already in N, and every point of the segment to it is a state.
    """
    n = psi.n
    evals, evecs = np.linalg.eigh(parent.matrix)
    lam_min = float(evals[0])
    g = evecs[:, evals < FACE_KERNEL_CUT]
    k = g.shape[1]
    basis = _hermitian_basis(k)
    mats = np.einsum("ia,mab,jb->mij", g, basis, g.conj())
    traces = np.array([
        np.concatenate([partial_trace_matrix(m, n, [j]).ravel()
                        for j in range(1, n + 1)]) for m in mats])
    system = np.concatenate([traces.real, traces.imag], axis=1).T
    _, svals, vt = np.linalg.svd(system, full_matrices=False)
    null = vt[svals <= FACE_NULL_CUT]
    candidates = list(null)
    rho = np.outer(psi.amps, psi.amps.conj())
    if k > 2 and len(null):
        product = np.ones((1, 1))
        for j in range(1, n + 1):
            others = [i for i in range(1, n + 1) if i != j]
            product = np.kron(product,
                              partial_trace_matrix(rho, n, others))
        # the basis elements are Hermitian and orthonormal, so the
        # coefficients of a Hermitian matrix are tr(B_m M)
        coeffs = np.real(np.einsum("mij,ji->m", mats, product - rho))
        coeffs = null.T @ (null @ coeffs)
        if np.linalg.norm(coeffs) > FACE_NULL_CUT:
            candidates.append(coeffs)
    step, compatible = 0.0, None
    if candidates:
        # g has orthonormal columns, so a unit c is a unit-norm g x g^dag
        c = np.array(candidates)
        xs = np.tensordot(c / np.linalg.norm(c, axis=1)[:, None], basis,
                          axes=1)
        coords = g.conj().T @ psi.amps
        ends = np.stack(psd_segment(np.outer(coords, coords.conj()), xs),
                        axis=1).ravel()
        top = int(np.argmax(np.abs(ends)))
        if ends[top] != 0.0:
            step = abs(float(ends[top]))
            compatible = rho + ends[top] * (g @ xs[top // 2] @ g.conj().T)
    if not len(null) and lam_min < -FACE_KERNEL_CUT:
        step = float("nan")
    return FaceCheck(
        k, len(null), float(np.min(svals[svals > FACE_NULL_CUT])), lam_min,
        step, len(candidates),
        None if compatible is None else DensityMatrix(n, compatible))


@dataclass(frozen=True)
class CompatVerdict:
    determined: bool | None          # None when inconclusive
    ghz_certificate: GhzCertificate
    witness_family: WitnessFamily | None
    numeric_sup_tmax: float
    samples_used: int
    anomaly: str | None = None
    witness_rdm_residual: float | None = None
    parent_gap: float | None = None  # None when no cross-check ran
    # which cross-check ran: "parent_hamiltonian", "face" or None
    cross_check: str | None = None
    face: FaceCheck | None = None    # None unless the face check ran


def determinedness(psi: PureState, tol: float = 1e-8,
                   restarts: int = 64, seed: int = 0) -> CompatVerdict:
    """Is psi the unique state (pure or mixed) with its RDM tuple?

    The verdict follows the GHZ-type theorem: determined iff psi is not
    GHZ-type.  An independent numeric cross-check follows: a parent
    Hamiltonian certificate first, and the face check on that
    Hamiltonian's kernel when the certificate does not certify (see the
    module docstring and `face_check`).  Both are deterministic, so
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
    orthogonal to u_j.  So every member has the z = 0 member's RDM
    tuple, and `witness_rdm_residual` compares psi's tuple with that one
    member's.
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
        witness_res = rdm_max_distance(ptr_tuple(family.member(0.0)),
                                       ptr_tuple(psi.projector()))
    parent = parent_hamiltonian(psi)
    face = None
    if parent.certifies:
        method, sup, samples = "parent_hamiltonian", parent.bound, 0
        found = (f"a parent Hamiltonian (gap {parent.gap:.3e}) bounds "
                 f"every step by {sup:.3e}")
    else:
        face = face_check(psi, parent)
        method, sup, samples = "face", face.step, face.directions
        found = (f"the face check found no compatible state (largest step "
                 f"{sup:.3e}, kernel dim {face.kernel_dim}, null dim "
                 f"{face.null_dim})")
    determined = not cert.is_ghz
    anomalies = []
    if determined and sup > 1e-4:
        anomalies.append(f"theorem says determined but the face check "
                         f"found a compatible state at step {sup:.3e}")
    if not determined and not sup >= 1e-6:
        anomalies.append(f"theorem says undetermined but {found}")
    if witness_res is not None and witness_res > RDM_EQUAL_TOL:
        anomalies.append(f"witness family RDM residual {witness_res:.3e} "
                         f"exceeds {RDM_EQUAL_TOL:.0e}")
    return CompatVerdict(determined, cert, family, sup, samples,
                         "; ".join(anomalies) or None, witness_res,
                         parent.gap, method, face)


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
