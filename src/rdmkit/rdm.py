"""Partial traces, the map rho -> (rho_(1), ..., rho_(n)), and RDM comparison.

Two ways to compare (n-1)-qubit RDMs.  `ptr_tuple` builds the validated
tuple of one state's parts, and `require_equal_rdms` compares two tuples;
the `rdm` command reports such a tuple.  Every other comparison is
between a pure psi and a second state omega, and `rdm_distances` makes it
without building a tuple: omega is given either as a 2^n x r factor F
with omega = F F^dag (a pure state, a rank-two partner or a
purification) or as its dense matrix.  `require_rdms_match` is its gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import DensityMatrix, PureState, ValidationError

RDM_EQUAL_TOL = 1e-9  # two tuples count as "the same RDMs" below this


def partial_trace_matrix(mat: np.ndarray, n: int, qubits) -> np.ndarray:
    """Partial trace of a 2^n x 2^n matrix over the given qubits (1-based).

    Works on any matrix (no state validation); used internally for
    perturbation directions as well as for density matrices.
    """
    qubits = sorted(set(qubits))
    if not qubits:
        raise ValidationError("qubit subset must be non-empty")
    if len(qubits) >= n:
        raise ValidationError("cannot trace out every qubit")
    if qubits[0] < 1 or qubits[-1] > n:
        raise ValidationError(f"qubits {qubits} out of range 1..{n}")
    t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * n))
    # Row axis of qubit j is j-1, column axis is n+j-1; trace highest first
    # so lower axis numbers stay valid.
    traced = 0
    for j in reversed(qubits):
        t = np.trace(t, axis1=j - 1, axis2=n - traced + j - 1)
        traced += 1
    d = 2 ** (n - traced)
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, qubits) -> DensityMatrix:
    """rho_(S): trace the state over a proper non-empty subset of qubits."""
    out = partial_trace_matrix(rho.mat, rho.n, qubits)
    return DensityMatrix(rho.n - len(set(qubits)), out)


@dataclass(frozen=True)
class RdmTuple:
    """The n-tuple of (n-1)-qubit reduced density matrices of an n-qubit state.

    parts[j-1] is the trace over qubit j.  Pairwise consistency (tracing a
    second qubit out of two different parts gives the same (n-2)-qubit
    state) is checked at construction for n >= 3.
    """

    n: int
    parts: tuple

    def __post_init__(self):
        if len(self.parts) != self.n:
            raise ValidationError(
                f"expected {self.n} parts, got {len(self.parts)}")
        for p in self.parts:
            if not isinstance(p, DensityMatrix) or p.n != self.n - 1:
                raise ValidationError("each part must be an (n-1)-qubit state")
        if self.n >= 3:
            worst = self.consistency_residual()
            if worst > 1e-10:
                raise ValidationError(
                    f"pairwise consistency violated: residual {worst:.3e}")

    def consistency_residual(self) -> float:
        """Max Frobenius mismatch between doubly-traced parts, over pairs."""
        worst = 0.0
        for j in range(1, self.n + 1):
            for k in range(j + 1, self.n + 1):
                # in part j (qubit j removed), qubit k sits at position k-1;
                # in part k, qubit j keeps position j
                a = partial_trace_matrix(
                    self.parts[j - 1].mat, self.n - 1, [k - 1])
                b = partial_trace_matrix(
                    self.parts[k - 1].mat, self.n - 1, [j])
                worst = max(worst, float(np.linalg.norm(a - b)))
        return worst


def ptr_tuple(rho: DensityMatrix) -> RdmTuple:
    """The n-tuple (rho_(1), ..., rho_(n)) of one-qubit-removed RDMs."""
    if rho.n < 2:
        raise ValidationError("need n >= 2: no (n-1)-qubit parts exist")
    parts = tuple(partial_trace(rho, [j]) for j in range(1, rho.n + 1))
    return RdmTuple(rho.n, parts)


def rdm_max_distance(a: RdmTuple, b: RdmTuple) -> float:
    """Max over j of the Frobenius distance between corresponding parts."""
    if a.n != b.n:
        raise ValidationError(f"qubit counts differ: {a.n} vs {b.n}")
    return max(
        float(np.linalg.norm(x.mat - y.mat))
        for x, y in zip(a.parts, b.parts))


def require_equal_rdms(a: RdmTuple, b: RdmTuple) -> None:
    """Raise ValidationError unless a's parts are within RDM_EQUAL_TOL of b's.

    The message names the first qubit whose parts differ (Frobenius norm).
    """
    if a.n != b.n:
        raise ValidationError(f"qubit counts differ: {a.n} vs {b.n}")
    _require_close(np.linalg.norm(x.mat - y.mat)
                   for x, y in zip(a.parts, b.parts))


def _require_close(distances) -> None:
    """The RDM-equality gate: every per-qubit distance <= RDM_EQUAL_TOL."""
    for j, dist in enumerate(distances, start=1):
        if dist > RDM_EQUAL_TOL:
            raise ValidationError(
                f"RDM mismatch at qubit {j}: distance {float(dist):.3e}")


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


def rdm_distances(psi: PureState, omega) -> np.ndarray:
    """Per-qubit Frobenius distances between psi's (n-1)-RDMs and omega's.

    Entry j-1 is ||tr_j |psi><psi| - tr_j omega||_F.  omega is either a
    DensityMatrix or a 2^n x r factor F with omega = F F^dag (a 2^n vector
    is a pure state, r = 1).  Nothing is validated here: both states were
    validated where they were built, and the partial traces of one matrix
    are consistent by construction.

    With M_j psi's 2 x 2^(n-1) amplitude matrix (qubit j as the row
    index), tr_j |psi><psi| = M_j^T conj(M_j).  Likewise tr_j F F^dag =
    G_j G_j^dag, G_j holding F's 2r columns (x, k) of rest-qubit
    amplitudes.  One batched QR [M_j^T G_j] = Q [R_M R_F] (R at most
    (2 + 2r) square) gives the distance as ||R_M R_M^dag - R_F R_F^dag||_F,
    taken entry by entry: no cancellation between two large norms, and
    O(n 2^n r^2) time.  A dense omega is traced with
    `partial_trace_matrix` and compared with M_j^T conj(M_j).
    """
    dense = isinstance(omega, DensityMatrix)
    if not dense:
        omega = np.reshape(omega, (len(omega), -1))
    n, m = psi.n, omega.n if dense else len(omega).bit_length() - 1
    if min(n, m) < 2:
        raise ValidationError("need n >= 2: no (n-1)-qubit parts exist")
    if n != m:
        raise ValidationError(f"qubit counts differ: {n} vs {m}")
    index = _split_index(n)
    ours = psi.amps[index]
    if dense:
        return np.array([np.linalg.norm(
            partial_trace_matrix(omega.mat, n, [j])
            - ours[j - 1].T @ ours[j - 1].conj()) for j in range(1, n + 1)])
    theirs = omega[index].swapaxes(2, 3).reshape(n, -1, 2 ** (n - 1))
    rows = np.concatenate([ours, theirs], axis=1)
    r = np.linalg.qr(rows.swapaxes(1, 2), mode="r")
    a, b = r[..., :2], r[..., 2:]
    diff = a @ a.conj().swapaxes(1, 2) - b @ b.conj().swapaxes(1, 2)
    return np.linalg.norm(diff, axis=(1, 2))


def require_rdms_match(psi: PureState, omega) -> None:
    """Raise ValidationError unless omega's (n-1)-RDMs are psi's.

    omega is given as to `rdm_distances`; the gate and its message are
    `require_equal_rdms`'s: RDM_EQUAL_TOL, and the first qubit whose
    parts differ.
    """
    _require_close(rdm_distances(psi, omega))
