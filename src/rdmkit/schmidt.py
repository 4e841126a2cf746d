"""Schmidt splits across one qubit, purifications, environment vectors.

A split across qubit j works on M, psi's amplitudes as a 2 x 2^(n-1)
matrix with qubit j as the row index.  The rest-side RDM is
M^T conj(M), so its eigenvalues are the squared singular values of M and
its eigenvectors are the right singular vectors (the rows of Vh in
M = U S Vh).  One thin SVD of M gives the whole split in O(2^n) time and
memory; no 2^(n-1) x 2^(n-1) matrix is formed.  Each rest-side vector
chi_i is fixed up to phase by making its largest-magnitude component
real positive.

The environment-vector machinery: a purification Omega of a state omega
sharing psi's RDMs can be expanded against the Schmidt data of psi at any
qubit j, producing vectors E^j_i on (qubit j + environment) and
environment-only vectors e^j_{ir}.  Equating coefficients across two
different qubits j, k yields the main constraint

    c_I e^j_{i_j i_j} + c_{I_j} e^j_{i_j^c i_j}
  = c_I e^k_{i_k i_k} + c_{I_k} e^k_{i_k^c i_k}

for every multi-index I, where c_I are psi's amplitudes in the product
basis built from the per-qubit Schmidt vectors and I_j is I with slot j
flipped.  main_constraint_max_residual evaluates it as array operations:
for each qubit j one (2^n x env_dim) array

    L_j[I] = c_I e^j_{i_j i_j} + c_{I_j} e^j_{i_j^c i_j},

with i_j = (I >> (n-j)) & 1 and I_j = I ^ (1 << (n-j)), and the residual
is the largest row norm of L_a - L_b over the pairs a < b, in
O(n^2 2^n env_dim) time with no per-index Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import (DensityMatrix, EigDecomposition, PureState,
                     ValidationError, hermitian_eig)
from .rdm import require_rdms_match

PRODUCT_Q_TOL = 1e-12  # below this, q1 is treated as exactly zero


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component real positive."""
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def _amplitude_matrix(psi: PureState, j: int) -> np.ndarray:
    """psi's amplitudes as M, 2 x 2^(n-1), with qubit j as the row index."""
    p3 = psi.amps.reshape(2 ** (j - 1), 2, 2 ** (psi.n - j))
    return np.moveaxis(p3, 1, 0).reshape(2, -1)


@dataclass(frozen=True)
class SchmidtSplit:
    """Schmidt data of a pure state across the (qubit j | rest) cut.

    q0 >= q1 >= 0 are the eigenvalues of the rest-side RDM; chi holds the
    two rest-side eigenvectors as rows; alpha holds the matching qubit-j
    vectors.  alpha[1] is None for a product split (q1 ~ 0), where only
    the i=0 row of the decomposition is defined.
    """

    n: int
    j: int
    q: tuple
    chi: np.ndarray = field(repr=False)
    alpha0: np.ndarray = field(repr=False)
    alpha1: np.ndarray | None = field(repr=False)

    @property
    def is_product(self) -> bool:
        return self.alpha1 is None

    def alpha(self, i: int) -> np.ndarray:
        a = (self.alpha0, self.alpha1)[i]
        if a is None:
            raise ValidationError(
                f"alpha_1 is undefined for a product split at qubit {self.j}")
        return a

    def alpha_basis(self) -> np.ndarray:
        """2x2 unitary with columns (alpha_0, alpha_1)."""
        return np.stack([self.alpha(0), self.alpha(1)], axis=1)


def schmidt_split(psi: PureState, j: int) -> SchmidtSplit:
    """Schmidt-decompose psi across qubit j (1-based).

    One thin SVD M = U S Vh of the 2 x 2^(n-1) amplitude matrix gives
    q_i = s_i^2 and chi_i = Vh[i], the eigenpairs of the rest-side RDM
    M^T conj(M); O(2^n) time and memory.  Each chi_i is phase-fixed
    (largest-magnitude component real positive), and alpha_i is the
    contraction M conj(chi_i) / sqrt(q_i).
    """
    n = psi.n
    if n < 2:
        raise ValidationError("need n >= 2 for a Schmidt split")
    if not 1 <= j <= n:
        raise ValidationError(f"qubit {j} out of range 1..{n}")
    m = _amplitude_matrix(psi, j)
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    q0, q1 = float(s[0] ** 2), float(s[1] ** 2)
    chi = np.stack([_fix_phase(vh[0]), _fix_phase(vh[1])])

    def contract_alpha(i, q):
        return m @ chi[i].conj() / np.sqrt(q)

    alpha0 = contract_alpha(0, q0)
    alpha1 = None if q1 <= PRODUCT_Q_TOL else contract_alpha(1, q1)
    return SchmidtSplit(n, j, (q0, q1), chi, alpha0, alpha1)


@dataclass(frozen=True)
class Purification:
    """Pure state on (n qubits x environment of dimension env_dim).

    omega_vec is indexed system-major: entry (s, e) sits at s * env_dim + e.
    """

    n: int
    env_dim: int
    omega_vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.omega_vec, dtype=complex)
        if self.env_dim < 1:
            raise ValidationError("environment dimension must be >= 1")
        if v.shape != (2**self.n * self.env_dim,):
            raise ValidationError(
                f"expected length {2**self.n * self.env_dim} vector")
        if not np.isfinite(v).all():
            raise ValidationError("amplitudes must be finite")
        nv = float(np.linalg.norm(v))
        if abs(nv - 1.0) > 1e-10:
            raise ValidationError(f"purification not normalized: norm {nv!r}")
        v.flags.writeable = False
        object.__setattr__(self, "omega_vec", v)

    def system_state(self) -> DensityMatrix:
        """Trace out the environment."""
        o = self.omega_vec.reshape(2**self.n, self.env_dim)
        return DensityMatrix(self.n, o @ o.conj().T)


def purify(omega: DensityMatrix) -> Purification:
    """Standard purification from the eigendecomposition of omega.

    omega is decomposed once: the rank (eigenvalues above 1e-10, after the
    PSD check) and the environment columns sqrt(p_k) phi_k, largest p_k
    first, come from the same hermitian_eig.  The trace-back check runs on
    the raw o o^dag of the normalised 2^n x r matrix o: that product is
    Hermitian and PSD by construction and has unit trace, so it needs no
    `DensityMatrix` validation of its own.
    """
    return _purify_given(omega, hermitian_eig(omega.mat))


def _purify_given(omega: DensityMatrix,
                  dec: EigDecomposition) -> Purification:
    """purify from omega's eigendecomposition dec, for a caller holding it."""
    r = dec.rank(1e-10)
    p = dec.eigenvalues[::-1][:r]
    vec = dec.eigenvectors[:, ::-1][:, :r] * np.sqrt(p)
    o = vec / np.linalg.norm(vec)
    back = float(np.linalg.norm(o @ o.conj().T - omega.mat))
    if back > 1e-10:
        raise ValidationError(f"purification trace-back residual {back:.3e}")
    return Purification(omega.n, r, o.reshape(-1))


@dataclass(frozen=True)
class EnvVectors:
    """Environment-vector data extracted from a purification at qubit j.

    big_e[i] is E^j_i on (qubit j x environment), shape (2, env_dim);
    small[i, r] is e^j_{ir} in the environment only, shape (env_dim,);
    omega_split[r] is Omega^{(j)}_r on (rest qubits x environment).
    """

    n: int
    j: int
    env_dim: int
    split: SchmidtSplit
    big_e: np.ndarray = field(repr=False)       # (2, 2, env_dim)
    small: np.ndarray = field(repr=False)       # (2, 2, env_dim)
    omega_split: np.ndarray = field(repr=False)  # (2, 2^{n-1} * env_dim)

    def orthonormality_residuals(self) -> dict:
        """Residuals of the four orthonormality/consistency relations."""
        q = np.asarray(self.split.q)
        eye = np.eye(2)
        g_big = np.einsum("ixe,jxe->ij", self.big_e.conj(), self.big_e)
        g_om = self.omega_split.conj() @ self.omega_split.T
        rel1 = np.einsum("ire,jre->ij", self.small.conj(), self.small)
        rel2 = np.einsum("i,ire,ise->rs", q, self.small.conj(), self.small)
        out = {
            "big_e_orthonormal": float(np.max(np.abs(g_big - eye))),
            "omega_split_orthonormal": float(np.max(np.abs(g_om - eye))),
            "env_relation_1": float(np.max(np.abs(rel1 - eye))),
            "env_relation_2": float(np.max(np.abs(rel2 - np.diag(q)))),
        }
        # sqrt(q_r) Omega_r = sum_i sqrt(q_i) chi_i (x) e_{ir}
        worst = 0.0
        for r in range(2):
            lhs = np.sqrt(q[r]) * self.omega_split[r]
            rhs = sum(
                np.sqrt(q[i])
                * np.einsum("c,e->ce", self.split.chi[i],
                            self.small[i, r]).reshape(-1)
                for i in range(2))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        out["omega_split_consistency"] = worst
        return out


def _require_purifies_psi_rdms(pur: Purification, psi: PureState) -> None:
    """The RDM gate on the purified state, with omega_vec as its factor.

    omega_vec, read as a 2^n x env_dim matrix F, has F F^dag = the system
    state, so `rdm.require_rdms_match` compares it in factored form:
    no 2^n x 2^n matrix and no RDM tuple is built.
    """
    if pur.n != psi.n:
        raise ValidationError(f"qubit counts differ: {pur.n} vs {psi.n}")
    require_rdms_match(psi, pur.omega_vec.reshape(2**pur.n, pur.env_dim))


def _env_vectors(pur: Purification, psi: PureState, j: int) -> EnvVectors:
    split = schmidt_split(psi, j)
    if split.is_product:
        raise ValidationError(
            f"product split at qubit {j}: environment vectors for i=1 "
            "are undefined (q1 ~ 0)")
    n, r = psi.n, pur.env_dim
    pre, post = 2 ** (j - 1), 2 ** (n - j)
    o4 = pur.omega_vec.reshape(pre, 2, post, r)
    q = np.asarray(split.q)
    chi3 = split.chi.reshape(2, pre, post)
    big_e = np.einsum("iab,axbe->ixe", chi3.conj(), o4) / np.sqrt(q)[:, None, None]
    abas = split.alpha_basis()  # columns alpha_0, alpha_1
    small = np.einsum("xr,ixe->ire", abas.conj(), big_e)
    om_split = np.einsum("xr,axbe->rabe", abas.conj(), o4) / np.sqrt(q)[:, None, None, None]
    return EnvVectors(n, j, r, split, big_e, small,
                      om_split.reshape(2, -1))


def extract_env_vectors(pur: Purification, psi: PureState,
                        j: int) -> EnvVectors:
    """Extract E^j_i, e^j_{ir}, Omega^{(j)}_r from a purification.

    The purification must purify a state whose RDMs match psi's
    (`rdm.require_rdms_match`, in factored form); otherwise the offending
    qubit and distance are reported.  Requires a non-product Schmidt
    split at qubit j.
    """
    _require_purifies_psi_rdms(pur, psi)
    return _env_vectors(pur, psi, j)


def extract_env_vectors_all(pur: Purification,
                            psi: PureState) -> list[EnvVectors]:
    """extract_env_vectors at qubits 1..n, after one RDM check.

    The RDMs are compared once for the whole list; each entry equals
    extract_env_vectors(pur, psi, j) for j = 1..n.
    """
    _require_purifies_psi_rdms(pur, psi)
    return [_env_vectors(pur, psi, j) for j in range(1, psi.n + 1)]


def alpha_basis_amplitudes(psi: PureState, splits: list[SchmidtSplit]) -> np.ndarray:
    """psi's amplitudes c_I in the per-qubit Schmidt-alpha product basis."""
    amps = psi.amps.reshape((2,) * psi.n)
    for m, sp in enumerate(splits):
        u = sp.alpha_basis()
        amps = np.moveaxis(
            np.tensordot(u.conj().T, amps, axes=([1], [m])), 0, m)
    return amps.reshape(-1)


def main_constraint_max_residual(envs: list[EnvVectors],
                                 psi: PureState) -> float:
    """Max main-constraint residual over all multi-indices and qubit pairs.

    envs must hold one extraction per qubit, in qubit order, from the same
    purification.  Each qubit's side of the constraint is one
    (2^n x env_dim) array L_j (see the module docstring); the result is
    the largest row norm of L_a - L_b over the pairs a < b.
    """
    n = psi.n
    if len(envs) != n:
        raise ValidationError(f"need one extraction per qubit ({n})")
    if len({e.env_dim for e in envs}) != 1:
        raise ValidationError("environment vectors from different purifications")
    c = alpha_basis_amplitudes(psi, [e.split for e in envs])
    flat = np.arange(2**n)
    sides = []
    for env in envs:
        shift = n - env.j
        i_j = (flat >> shift) & 1
        flipped = flat ^ (1 << shift)
        sides.append(c[:, None] * env.small[i_j, i_j]
                     + c[flipped, None] * env.small[1 - i_j, i_j])
    sides = np.stack(sides)
    a, b = np.triu_indices(n, 1)
    return float(np.max(np.linalg.norm(sides[a] - sides[b], axis=-1)))
