"""Generalized GHZ states, their RDM-compatible family, and the GHZ-type detector.

A state is GHZ-type when it equals a * (u_1 x ... x u_n) + b * (v_1 x ... x v_n)
with <u_i|v_i> = 0 at every qubit and a*b nonzero, i.e. it is local-unitary
equivalent to alpha|0...0> + beta|1...1> with alpha*beta != 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import (DensityMatrix, PureState, ValidationError, hermitian_eig)
from .schmidt import schmidt_split

DETECT_TOL = 1e-8
CLEAR_FALSE_NONPRODUCT = 1e-4  # above this the degenerate branch is a clean no


@dataclass(frozen=True)
class GhzParams:
    """Amplitudes (a, b) of a generalized GHZ state; both must be nonzero."""

    n: int
    a: complex
    b: complex

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("need n >= 2")
        norm2 = abs(self.a) ** 2 + abs(self.b) ** 2
        # "not <=" so that a NaN, which fails every comparison, is refused
        if not abs(norm2 - 1.0) <= 1e-10:
            raise ValidationError(
                f"|a|^2 + |b|^2 = {norm2!r}, expected 1 (no renormalization)")
        if abs(self.a) <= 1e-10 or abs(self.b) <= 1e-10:
            raise ValidationError("a*b = 0 is not a generalized GHZ state")


@dataclass(frozen=True)
class GhzCertificate:
    """Outcome of GHZ-type detection.

    When is_ghz: params holds unit magnitudes with |a| >= |b|, local_bases
    the n orthonormal pairs (u_i, v_i), and residual the reassembly
    distance.
    inconclusive marks a degenerate-branch product vector whose
    nonproductness falls between tol and CLEAR_FALSE_NONPRODUCT;
    diagnostics carries the numbers behind the decision.
    """

    is_ghz: bool
    inconclusive: bool
    residual: float
    params: GhzParams | None = None
    local_bases: list | None = field(default=None, repr=False)
    diagnostics: dict = field(default_factory=dict)


def make_ghz(n: int, a: complex, b: complex) -> PureState:
    """The generalized GHZ state a|0...0> + b|1...1>."""
    GhzParams(n, a, b)  # validates
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = a
    amps[-1] = b
    return PureState(n, amps)


def ghz_family(params: GhzParams, z: complex) -> DensityMatrix:
    """The RDM-compatible family member at disk coordinate z (|z| <= 1).

    |a|^2 P_0 + |b|^2 P_1 + z a conj(b) |0...0><1...1| + h.c.
    The off-diagonal term has all n single-qubit partial traces equal to
    zero, so every member shares the GHZ state's RDM tuple; the member is
    pure exactly when |z| = 1.
    """
    if abs(z) > 1 + 1e-12:
        raise ValidationError(f"|z| = {abs(z)!r} > 1 gives a negative eigenvalue")
    d = 2**params.n
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = abs(params.a) ** 2
    m[-1, -1] = abs(params.b) ** 2
    off = z * params.a * np.conj(params.b)
    m[0, -1] = off
    m[-1, 0] = np.conj(off)
    return DensityMatrix(params.n, m)


def _single_qubit_rdms(vec: np.ndarray, n: int) -> np.ndarray:
    """Stack of one-qubit RDMs of a pure vector on n qubits, shape (n, 2, 2)."""
    t = vec.reshape((2,) * n)
    out = np.empty((n, 2, 2), dtype=complex)
    for m in range(n):
        a = np.moveaxis(t, m, 0).reshape(2, -1)
        out[m] = a @ a.conj().T
    return out


def _nonproductness(vec: np.ndarray, n: int) -> float:
    """Sum over qubits of (1 - purity of the single-qubit RDM); 0 iff product."""
    if n == 1:
        return 0.0
    rdms = _single_qubit_rdms(vec, n)
    pur = np.einsum("mij,mji->m", rdms, rdms).real
    return float(np.sum(1.0 - pur))


def _factor_product(vec: np.ndarray, n: int) -> list[np.ndarray]:
    """Single-qubit factors of a (near-)product vector, phases arbitrary."""
    factors = []
    for rho in _single_qubit_rdms(vec, n):
        _, vecs = np.linalg.eigh(rho)
        factors.append(vecs[:, -1])
    return factors


def _minor_gram(chi: np.ndarray, n_rest: int) -> np.ndarray:
    """3x3 Gram matrix G of the 2x2 minors of w = c0 chi[0] + c1 chi[1].

    Across rest qubit m, each minor of w's (qubit m) x (other rest qubits)
    matrix c0 A0 + c1 A1 is k . v with v = (c0^2, c0 c1, c1^2).  G sums
    conj(k) k^T over all minors and cuts, so v^H G v = sum |minor|^2 =
    _nonproductness(w) / 2 for a unit w.  The minors are never listed: at
    c = (1, 0), (1, 1), (0, 1) they are those of B = A0, A0 + A1, A1, and
    by Cauchy-Binet sum_{s<t} conj(det B_i[:, st]) det B_j[:, st] =
    det(conj(B_i) B_j^T).  Cost and memory are O(n_rest 2^n).
    """
    t = chi.reshape((2,) * (n_rest + 1))
    gram = np.zeros((3, 3), dtype=complex)
    for m in range(n_rest):
        a = np.moveaxis(t, m + 1, 1).reshape(2, 2, -1)
        b = np.stack([a[0], a[0] + a[1], a[1]]).reshape(6, -1)
        p = (b.conj() @ b.T).reshape(3, 2, 3, 2)
        gram += p[:, 0, :, 0] * p[:, 1, :, 1] - p[:, 0, :, 1] * p[:, 1, :, 0]
    # from the values at (1, 0), (1, 1), (0, 1) to the coefficients k
    to_k = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    return to_k @ gram @ to_k.T


def _quadratic_roots(r: np.ndarray) -> list[np.ndarray]:
    """Unit vectors (c0, c1) solving r0 c0^2 + r1 c0 c1 + r2 c1^2 = 0.

    q = -(r1 + sqrt(r1^2 - 4 r0 r2)) / 2 gives (q : r0) and (r2 : q) with
    no cancellation; a (0, 0) pair is dropped, the other being a double root.
    """
    sq = np.sqrt(r[1] ** 2 - 4 * r[0] * r[2] + 0j)
    if (np.conj(r[1]) * sq).real < 0:
        sq = -sq
    q = -0.5 * (r[1] + sq)
    pairs = (np.array([q, r[0]]), np.array([r[2], q]))
    return [c / np.linalg.norm(c) for c in pairs if np.linalg.norm(c) > 0]


def _product_root_in_span(chi: np.ndarray, n_rest: int) -> np.ndarray:
    """The vector of span(chi[0], chi[1]) nearest a product, in closed form.

    If c0 chi[0] + c1 chi[1] is a product, every minor triple k of
    _minor_gram has k . v = 0 at v = (c0^2, c0 c1, c1^2), and so has
    conj(r) for G's dominant eigenvector r (r lies in the span of the
    conj(k)).  Of the two roots of conj(r) . v = 0, the less nonproduct
    one is returned.  With one rest qubit every vector is a product: chi[0].
    """
    if n_rest == 1:
        return chi[0]
    _, vecs = np.linalg.eigh(_minor_gram(chi, n_rest))
    roots = _quadratic_roots(np.conj(vecs[:, -1]))
    cands = [c[0] * chi[0] + c[1] * chi[1] for c in roots]
    return min(cands, key=lambda w: _nonproductness(w, n_rest))


def _assemble_certificate(psi: PureState, us: list, vs: list,
                          tol: float, diagnostics: dict) -> GhzCertificate:
    """Given candidate per-qubit bases, score the reassembly and decide.

    The fitted amplitudes a = <u|psi>, b = <v|psi> satisfy
    |a|^2 + |b|^2 = 1 - r^2 for the reassembly residual r, so the params
    are (|a|, |b|) / sqrt(|a|^2 + |b|^2), a unit pair for any r <= tol;
    r itself stays in the certificate's residual.
    """
    n = psi.n
    tu = us[0]
    tv = vs[0]
    for m in range(1, n):
        tu = np.kron(tu, us[m])
        tv = np.kron(tv, vs[m])
    a = complex(np.vdot(tu, psi.amps))
    b = complex(np.vdot(tv, psi.amps))
    residual = float(np.linalg.norm(psi.amps - a * tu - b * tv))
    diagnostics = dict(diagnostics, reassembly_residual=residual,
                       raw_a=a, raw_b=b)
    if residual > tol or abs(a) * abs(b) <= tol:
        return GhzCertificate(False, False, residual,
                              diagnostics=diagnostics)
    # absorb phases into the qubit-1 basis so (a, b) are real nonnegative
    us = list(us)
    vs = list(vs)
    us[0] = us[0] * (a / abs(a))
    vs[0] = vs[0] * (b / abs(b))
    norm = float(np.hypot(abs(a), abs(b)))
    a, b = abs(a) / norm, abs(b) / norm
    if b > a:
        a, b = b, a
        us, vs = vs, us
    bases = [(us[m], vs[m]) for m in range(n)]
    return GhzCertificate(True, False, residual,
                          params=GhzParams(n, a, b),
                          local_bases=bases, diagnostics=diagnostics)


def detect_ghz_type(psi: PureState, tol: float = DETECT_TOL) -> GhzCertificate:
    """Decide whether psi is GHZ-type and produce local bases if so.

    Branches on the Schmidt gap across qubit 1: product splits fail
    immediately, a clear gap pins the per-qubit bases through the
    single-qubit RDM eigenvectors, and a (near-)degenerate gap solves for
    the product pair in the rest-side eigenspace span(chi0, chi1) in
    closed form: every 2x2 minor of c0 chi0 + c1 chi1 is a quadratic in
    (c0 : c1), and one quadratic from the minors' 3x3 Gram matrix carries
    the product root.  tol must be finite with 0 < tol <
    CLEAR_FALSE_NONPRODUCT, where the degenerate branch is a clean no.
    """
    if not (np.isfinite(tol) and 0.0 < tol < CLEAR_FALSE_NONPRODUCT):
        raise ValidationError(
            f"tol must be finite with 0 < tol < {CLEAR_FALSE_NONPRODUCT:g}, "
            f"got {tol!r}")
    n = psi.n
    if n < 2:
        raise ValidationError("need n >= 2")
    split = schmidt_split(psi, 1)
    q0, q1 = split.q
    diagnostics = {"q": (q0, q1)}
    if q0 * q1 <= tol:
        # product across qubit 1; a generalized GHZ needs a*b != 0
        return GhzCertificate(False, False, float(np.sqrt(max(q1, 0.0))),
                              diagnostics=diagnostics)
    if q0 - q1 > np.sqrt(tol):
        return _detect_gapped(psi, split, tol, diagnostics)
    return _detect_degenerate(psi, split, tol, diagnostics)


def _detect_gapped(psi, split, tol, diagnostics):
    """Non-degenerate branch: read (u_k, v_k) off each single-qubit RDM."""
    n = psi.n
    q0, q1 = split.q
    us, vs = [], []
    rdms = _single_qubit_rdms(psi.amps, n)
    for k in range(n):
        dec = hermitian_eig(rdms[k])
        lam = dec.eigenvalues
        # each single-qubit spectrum must reproduce (q0, q1)
        if abs(lam[1] - q0) > 1e-6 or abs(lam[0] - q1) > 1e-6:
            diagnostics = dict(diagnostics, bad_qubit=k + 1,
                               spectrum=(float(lam[0]), float(lam[1])))
            return GhzCertificate(False, False, 1.0, diagnostics=diagnostics)
        us.append(dec.eigenvectors[:, 1])
        vs.append(dec.eigenvectors[:, 0])
    return _assemble_certificate(psi, us, vs, tol, diagnostics)


def _detect_degenerate(psi, split, tol, diagnostics):
    """Degenerate branch: closed-form product pair in the rest eigenspace."""
    n_rest = psi.n - 1
    w0 = _product_root_in_span(split.chi, n_rest)
    f_root = _nonproductness(w0, n_rest)
    if f_root > CLEAR_FALSE_NONPRODUCT:
        return GhzCertificate(False, False, float(np.sqrt(f_root)),
                              diagnostics=dict(diagnostics,
                                               min_nonproductness=f_root))
    w0 = _polish_product_in_span(w0, split.chi, n_rest)
    fmin = _nonproductness(w0, n_rest)
    diagnostics = dict(diagnostics, min_nonproductness=fmin)
    if fmin > CLEAR_FALSE_NONPRODUCT:
        return GhzCertificate(False, False, float(np.sqrt(fmin)),
                              diagnostics=diagnostics)
    if fmin > tol:
        return GhzCertificate(False, True, float(np.sqrt(fmin)),
                              diagnostics=dict(
                                  diagnostics,
                                  reason="nearest product lies between "
                                         "accept and reject thresholds"))
    # orthonormal partner inside the two-dimensional span
    c0 = np.vdot(split.chi[0], w0)
    c1 = np.vdot(split.chi[1], w0)
    w1 = np.conj(c1) * split.chi[0] - np.conj(c0) * split.chi[1]
    w1 /= np.linalg.norm(w1)
    w1 = _polish_product_in_span(w1, split.chi, n_rest)
    if abs(np.vdot(w0, w1)) > 1e-6:
        return GhzCertificate(False, False, 1.0, diagnostics=dict(
            diagnostics, span_pair_overlap=float(abs(np.vdot(w0, w1)))))
    f_partner = _nonproductness(w1, n_rest)
    diagnostics = dict(diagnostics, partner_nonproductness=f_partner)
    if f_partner > CLEAR_FALSE_NONPRODUCT:
        return GhzCertificate(False, False, float(np.sqrt(f_partner)),
                              diagnostics=diagnostics)
    if f_partner > tol:
        return GhzCertificate(False, True, float(np.sqrt(f_partner)),
                              diagnostics=dict(
                                  diagnostics,
                                  reason="orthogonal partner is only "
                                         "marginally product"))
    u_rest = _factor_product(w0, n_rest)
    v_rest = _factor_product(w1, n_rest)
    overlaps = [abs(np.vdot(u_rest[m], v_rest[m])) for m in range(n_rest)]
    diagnostics = dict(diagnostics, factor_overlaps=overlaps)
    if max(overlaps, default=0.0) > 1e-6:
        return GhzCertificate(False, False, 1.0, diagnostics=diagnostics)
    # qubit-1 vectors from contraction against the product pair
    p2 = psi.amps.reshape(2, -1)
    x0 = p2 @ w0.conj()
    x1 = p2 @ w1.conj()
    if abs(np.vdot(x0, x1)) > 1e-6:
        return GhzCertificate(False, False, 1.0, diagnostics=dict(
            diagnostics, qubit1_overlap=float(abs(np.vdot(x0, x1)))))
    us = [x0 / np.linalg.norm(x0)] + u_rest
    vs = [x1 / np.linalg.norm(x1)] + v_rest
    # force exact per-qubit orthogonality; the reassembly residual then
    # carries any genuine mismatch
    vs = [_orthogonalize(v, u) for u, v in zip(us, vs)]
    return _assemble_certificate(psi, us, vs, tol, diagnostics)


def _orthogonalize(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    w = v - u * np.vdot(u, v)
    return w / np.linalg.norm(w)


def _polish_product_in_span(w: np.ndarray, chi: np.ndarray,
                            n_rest: int) -> np.ndarray:
    """Alternate nearest-product and span projections from a good start.

    The closed-form root of _product_root_in_span is exact up to the
    rounding in the Gram matrix's eigenvector, which the quadratic's
    conditioning can amplify; this contracts that error quadratically.
    Stops after 8 passes, or once a pass moves the iterate by no more
    than 1 - |<w_old, w_new>| <= 1e-15.
    """
    for _ in range(8):
        factors = _factor_product(w, n_rest)
        prod = factors[0]
        for f in factors[1:]:
            prod = np.kron(prod, f)
        cand = (chi[0] * np.vdot(chi[0], prod)
                + chi[1] * np.vdot(chi[1], prod))
        nrm = np.linalg.norm(cand)
        if nrm < 0.5:   # projection collapsed; keep the previous iterate
            break
        w_old, w = w, cand / nrm
        if 1.0 - abs(np.vdot(w_old, w)) <= 1e-15:
            break
    return w
