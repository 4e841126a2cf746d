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
   and the search is skipped.
2. `search_max_tmax`, otherwise: a heuristic search for the largest
   feasible step.  `numeric_sup_tmax` is the largest step it found (a
   lower bound on the supremum, reported as an upper bound below 1e-9),
   and `samples_used` counts the directions it tried.

GHZ-type states never have such an H (their RDMs admit other states), so
they always reach the search.  A parent Hamiltonian is sufficient but not
necessary, so a missing one is never an anomaly on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ghz import GhzCertificate, GhzParams, detect_ghz_type, ghz_family
from .qstate import (DensityMatrix, PauliWord, PureState, ValidationError,
                     numeric_rank)
from .rdm import (partial_trace_matrix, ptr_tuple, rdm_max_distance,
                  require_equal_rdms)

PSD_FEAS_TOL = 1e-10    # rho + t*Delta counts as PSD down to this eigenvalue
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 60
SEARCH_FLOOR = 1e-9     # below this, search reports an upper bound only
# the search bisects against a much stricter PSD tolerance: at a
# rank-deficient rho, a direction coupling range to kernel has
# lambda_min ~ -c t^2, so a slack of eps admits spurious steps of order
# sqrt(eps); 1e-14 keeps those below 1e-6 while leaving genuine
# boundaries (finite slope) essentially unchanged
SEARCH_PSD_TOL = 1e-14
CERTIFY_TMAX = 1e-6     # a parent-Hamiltonian bound this small skips search
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


def direction_from_matrix(n: int, mat: np.ndarray,
                          span_tol: float = 1e-8) -> Direction:
    """Project a Hermitian matrix onto the span and normalize.

    Rejects input whose out-of-span component exceeds span_tol.
    """
    c = coeffs_of_matrix(n, mat)
    back = np.tensordot(c, _word_stack(n), axes=1)
    out_of_span = float(np.linalg.norm(mat - back)) / max(
        float(np.linalg.norm(mat)), 1e-300)
    if out_of_span > span_tol:
        raise ValidationError(
            f"matrix is not in the full-weight span: residual {out_of_span:.3e}")
    return direction_from_coeffs(n, c)


def _psd_ok(mat: np.ndarray, tol: float = PSD_FEAS_TOL) -> bool:
    """Is mat PSD down to -tol?  Cholesky of the shifted matrix."""
    try:
        np.linalg.cholesky(mat + tol * np.eye(len(mat)))
        return True
    except np.linalg.LinAlgError:
        return False


def _feasible_mask(rho: np.ndarray, mats: np.ndarray, ts: np.ndarray,
                   tol: float) -> np.ndarray:
    """PSD feasibility of rho + t_k * mats_k for each k.

    Cholesky is an order of magnitude cheaper than a full eigensolve and
    every caller only needs the yes/no answer at a threshold.
    """
    out = np.empty(len(mats), dtype=bool)
    for k in range(len(mats)):
        out[k] = _psd_ok(rho + ts[k] * mats[k], tol)
    return out


def tmax_along(rho: DensityMatrix, d: Direction) -> tuple[float, float]:
    """(t_minus, t_plus): extent of the PSD segment along one direction.

    Every rho + t*Delta with t in [t_minus, t_plus] keeps rho's RDM tuple
    (the direction has all single-qubit partial traces zero).  Bisection
    on the minimum eigenvalue over bracket [0, 2], tolerance 1e-12.
    """
    if rho.n != d.n:
        raise ValidationError("dimension mismatch")

    def boundary(sign):
        mat = sign * d.matrix

        def feasible(t):
            return _psd_ok(rho.mat + t * mat)

        if feasible(2.0):
            return 2.0
        lo, hi = 0.0, 2.0
        for _ in range(BISECT_MAX_ITER):
            if hi - lo <= BISECT_TOL:
                break
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo

    return -boundary(-1.0), boundary(+1.0)


def _batched_max_boundary(rho: np.ndarray, mats: np.ndarray, best: float,
                          tol: float = SEARCH_PSD_TOL) -> tuple[float, int]:
    """Max over directions (both signs) of the PSD boundary step.

    Returns (value, winner) where winner indexes into mats (-1 if no
    direction beat `best`).  Directions whose boundary provably cannot
    exceed max(best, SEARCH_FLOOR) are discarded after a single probe and
    contribute only that upper bound; contenders are resolved by
    bisection.  Exact below-floor values are not needed by any caller
    (verdict thresholds sit at 1e-6 and 1e-4).
    """
    stack = np.concatenate([mats, -mats], axis=0)
    probe = max(best, SEARCH_FLOOR)
    if probe >= 2.0:
        return best, -1
    feas = _feasible_mask(rho, stack, np.full(len(stack), probe), tol)
    contenders = np.nonzero(feas)[0]
    if len(contenders) == 0:
        return max(best, min(probe, SEARCH_FLOOR)), -1
    sub = stack[contenders]
    lo = np.full(len(sub), probe)
    hi = np.full(len(sub), 2.0)
    top_ok = _feasible_mask(rho, sub, hi, tol)
    lo[top_ok] = 2.0
    active = ~top_ok
    for _ in range(BISECT_MAX_ITER):
        active &= (hi - lo) > BISECT_TOL
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        mid = 0.5 * (lo[idx] + hi[idx])
        ok = _feasible_mask(rho, sub[idx], mid, tol)
        lo[idx[ok]] = mid[ok]
        hi[idx[~ok]] = mid[~ok]
    top = int(np.argmax(lo))
    value = float(lo[top])
    if value <= best:
        return best, -1
    return value, int(contenders[top]) % len(mats)


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


def search_max_tmax(rho: DensityMatrix, restarts: int, seed: int,
                    extra_directions: tuple = ()) -> float:
    """Largest feasible RDM-preserving step found by heuristic search.

    Deterministic in (rho, restarts, seed).  Candidates: the sparse
    complementary-pair directions, any caller-supplied extras, all 3^n
    basis words, then `restarts` random unit directions each refined by
    batched coordinate ascent with a shrinking step.  Values below 1e-9
    are reported as upper bounds.
    """
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    n = rho.n
    stack = _word_stack(n)
    norm_words = stack / np.sqrt(2**n)
    best, _ = _batched_max_boundary(rho.mat, _pair_directions(n), 0.0)
    for extra in extra_directions:
        mat = extra.matrix if isinstance(extra, Direction) else np.asarray(extra)
        best, _ = _batched_max_boundary(rho.mat, mat[None], best)
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
    in for the search.
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
    full-weight word, so tr(H Delta) = 0 for each direction Delta the
    search explores.  Let rho = |psi><psi| + t Delta be PSD, with Delta
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
class CompatVerdict:
    determined: bool | None          # None when inconclusive
    ghz_certificate: GhzCertificate
    witness_family: WitnessFamily | None
    numeric_sup_tmax: float
    samples_used: int
    anomaly: str | None = None
    witness_rdm_residual: float | None = None
    parent_gap: float | None = None  # None when no cross-check ran

    @property
    def cross_check(self) -> str | None:
        """Which cross-check ran: "parent_hamiltonian", "search" or None."""
        if self.parent_gap is None:
            return None
        return "parent_hamiltonian" if self.samples_used == 0 else "search"


def _witness_directions(n: int, local_bases) -> list[Direction]:
    """The two in-span directions joining the GHZ pair's product states."""
    g0 = np.ones(1, dtype=complex)
    g1 = np.ones(1, dtype=complex)
    for (uk, vk) in local_bases:
        g0 = np.kron(g0, uk)
        g1 = np.kron(g1, vk)
    off = np.outer(g0, g1.conj())
    return [direction_from_matrix(n, mat / np.sqrt(2), span_tol=1e-6)
            for mat in (off + off.conj().T, 1j * off - 1j * off.conj().T)]


def determinedness(psi: PureState, tol: float = 1e-8,
                   restarts: int = 64, seed: int = 0) -> CompatVerdict:
    """Is psi the unique state (pure or mixed) with its RDM tuple?

    The verdict follows the GHZ-type theorem: determined iff psi is not
    GHZ-type.  An independent numeric cross-check follows: a parent
    Hamiltonian certificate first, the feasibility search when no
    certificate exists.  Disagreement is reported as an anomaly, never
    silently reconciled; several anomalies are joined with "; " in the
    order they are found.
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
        psi_tuple = ptr_tuple(psi.projector())
        witness_res = max(
            rdm_max_distance(ptr_tuple(family.member(z)), psi_tuple)
            for z in (0.0, -1.0, 0.5j))
    parent = parent_hamiltonian(psi)
    if parent.certifies:
        sup, samples = parent.bound, 0
        found = (f"a parent Hamiltonian (gap {parent.gap:.3e}) bounds "
                 f"every step by {sup:.3e}")
    else:
        extras = (_witness_directions(psi.n, cert.local_bases)
                  if cert.is_ghz else [])
        sup = search_max_tmax(psi.projector(), restarts, seed,
                              extra_directions=tuple(extras))
        samples = 3**psi.n + 2**psi.n + len(extras) + restarts
        found = f"search found no feasible step (sup {sup:.3e})"
    determined = not cert.is_ghz
    anomalies = []
    if determined and sup > 1e-4:
        anomalies.append(f"theorem says determined but search found a "
                         f"feasible step of size {sup:.3e}")
    if not determined and sup < 1e-6:
        anomalies.append(f"theorem says undetermined but {found}")
    if witness_res is not None and witness_res > 1e-9:
        anomalies.append(f"witness family RDM residual {witness_res:.3e} "
                         f"exceeds 1e-9")
    return CompatVerdict(determined, cert, family, sup, samples,
                         "; ".join(anomalies) or None, witness_res,
                         parent.gap)


def rank2_check(psi: PureState, omega: DensityMatrix) -> bool:
    """Does a mixed RDM-partner of a pure state have rank exactly 2?

    The theorem says yes for every valid input; a False return is a
    theorem-violation flag, not a normal outcome.
    """
    require_equal_rdms(ptr_tuple(psi.projector()), ptr_tuple(omega))
    rank = numeric_rank(omega.mat, 1e-8)
    if rank < 2:
        raise ValidationError("omega is pure; the check needs a mixed state")
    return rank == 2
