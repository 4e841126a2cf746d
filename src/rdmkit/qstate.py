"""Core state representations and dense Hermitian linear algebra.

Index convention used everywhere in this package: qubit 1 is the most
significant bit of the flat array index.  For an n-qubit multi-index
I = (i_1 ... i_n), the flat index is sum_j i_j * 2**(n-j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
NORM_TOL = 1e-10
PSD_TOL = 1e-9


class ValidationError(ValueError):
    """An input failed a structural invariant (not repaired, rejected)."""


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector c_I over all n-bit multi-indices."""

    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValidationError(
                f"expected {2**self.n} amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes must be finite")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValidationError(
                f"normalization violated: sum |c_I|^2 = {norm2!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.n, np.outer(self.amps, self.amps.conj()))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix of dimension 2^n."""

    n: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        d = 2**self.n
        if m.shape != (d, d):
            raise ValidationError(f"expected {d}x{d} matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("matrix entries must be finite")
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > 1e-12:
            raise ValidationError(f"not Hermitian: max asymmetry {asym:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise ValidationError(f"trace is {tr!r}, expected 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_TOL:
            raise ValidationError(f"not PSD: smallest eigenvalue {lo:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis, e.g. 'XIZ'."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValidationError(f"bad Pauli word {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(c != "I" for c in self.letters)

    def matrix(self) -> np.ndarray:
        m = PAULI[self.letters[0]]
        for c in self.letters[1:]:
            m = np.kron(m, PAULI[c])
        return m


@dataclass(frozen=True)
class EigDecomposition:
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, same order

    def rank(self, threshold: float = 1e-8) -> int:
        """Number of eigenvalues above threshold; the spectrum must be PSD."""
        if threshold <= 0:
            raise ValidationError(f"threshold must be > 0, got {threshold}")
        lo = float(self.eigenvalues[0])
        if lo < -PSD_TOL:
            raise ValidationError(f"not PSD: smallest eigenvalue {lo:.3e}")
        return int(np.sum(self.eigenvalues > threshold))


def hermitian_eig(m: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects input whose asymmetry max|m - m^dagger| exceeds 1e-10.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > HERMITICITY_TOL:
        raise ValidationError(f"not Hermitian: max asymmetry {asym:.3e}")
    vals, vecs = np.linalg.eigh(m)
    return EigDecomposition(vals, vecs)


def haar_random_state(n: int, seed: int) -> PureState:
    """Haar-distributed pure state, a deterministic function of (n, seed).

    Complex Gaussian amplitudes drawn from numpy's PCG64 stream seeded
    with (seed, n), then normalized; unitary invariance of the Gaussian
    makes the result Haar-distributed.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, n])
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    return PureState(n, amps)


def random_local_unitaries(n: int, seed: int) -> list[np.ndarray]:
    """n Haar-random 2x2 unitaries, deterministic in (n, seed)."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, n, 0x10ca1])
    out = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        out.append(q)
    return out


def apply_local_unitaries(psi: PureState, us: list[np.ndarray]) -> PureState:
    """Apply U_1 x ... x U_n to a pure state."""
    if len(us) != psi.n:
        raise ValidationError(f"need {psi.n} unitaries, got {len(us)}")
    amps = psi.amps.reshape((2,) * psi.n)
    for j, u in enumerate(us):
        amps = np.moveaxis(np.tensordot(u, amps, axes=([1], [j])), 0, j)
    return PureState(psi.n, amps.reshape(-1))


# Eigenvalues of rho and of x's kernel block, and x's range-kernel
# couplings, at or below this size count as zero in psd_segment.
PSD_CUT = 1e-10


def psd_segment(rho: np.ndarray, x: np.ndarray):
    """(t_minus, t_plus): the ends of the interval {t : rho + t x >= 0}.

    rho is Hermitian PSD; x is one Hermitian matrix of rho's size or a
    stack of them, and the ends are then floats or arrays.  An unbounded
    end is +-inf, and an end that cannot leave 0 is 0.0.  The ends are
    exact, found without bisection.

    In rho's eigenbasis write R for its range (eigenvalues D above
    PSD_CUT) and K for its kernel.  For t > 0, rho + t x >= 0 iff
    x_KK >= 0, x_RK vanishes on ker x_KK, and D + t S >= 0 with the
    generalised Schur complement S = x_RR - x_RK x_KK^+ x_KR.  The last
    holds up to t = 1 / lambda_max(-D^(-1/2) S D^(-1/2)), and for every
    t when that eigenvalue is <= 0.  For t < 0 the same test applies to
    -x, whose Schur complement is -S, so one eigh of x_KK and one
    eigvalsh of D^(-1/2) S D^(-1/2) give both ends.
    """
    x = np.asarray(x, dtype=complex)
    single = x.ndim == 2
    if single:
        x = x[None]
    evals, evecs = np.linalg.eigh(rho)
    in_range = evals > PSD_CUT
    v_r, v_k = evecs[:, in_range], evecs[:, ~in_range]
    x_r = v_r.conj().T @ x
    x_kk = v_k.conj().T @ x @ v_k
    e, u = np.linalg.eigh(x_kk)
    coupling = x_r @ v_k @ u                # x_RK in x_KK's eigenbasis
    zero = np.abs(e) <= PSD_CUT
    free = ~np.any(zero & (np.linalg.norm(coupling, axis=1) > PSD_CUT),
                   axis=1)
    inv = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, e))
    schur = (x_r @ v_r
             - (coupling * inv[:, None, :]) @ coupling.conj().swapaxes(1, 2))
    scale = 1.0 / np.sqrt(evals[in_range])
    mu = np.linalg.eigvalsh(scale[:, None] * schur * scale[None, :])
    with np.errstate(divide="ignore"):
        t_plus = 1.0 / np.maximum(-mu[:, 0], 0.0)
        t_minus = -1.0 / np.maximum(mu[:, -1], 0.0)
    t_plus = np.where(free & np.all(e >= -PSD_CUT, axis=1), t_plus, 0.0)
    t_minus = np.where(free & np.all(e <= PSD_CUT, axis=1), t_minus, 0.0)
    if single:
        return float(t_minus[0]), float(t_plus[0])
    return t_minus, t_plus
