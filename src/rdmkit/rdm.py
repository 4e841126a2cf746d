"""Partial traces, the map rho -> (rho_(1), ..., rho_(n)), and tuple comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, ValidationError

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
    for j, (x, y) in enumerate(zip(a.parts, b.parts), start=1):
        dist = float(np.linalg.norm(x.mat - y.mat))
        if dist > RDM_EQUAL_TOL:
            raise ValidationError(
                f"RDM mismatch at qubit {j}: distance {dist:.3e}")
