"""From (psi, omega) with shared RDMs, build the distinct pure partner.

The mixture (1-a)|psi><psi| + a*omega keeps psi's RDM tuple for every
real a.  omega has rank 2 with psi in its range; in an orthonormal basis
{psi, psi2} of that range the mixture is R(a) = (1-a) diag(1, 0) + a W,
with W = omega there and tr W = 1, so w00 = 1 - w11 and

    det R(a) = (1 - a w11) a w11 - a^2 |w01|^2
             = a w11 - a^2 (w11^2 + |w01|^2).

Its roots are a = 0, where the mixture is |psi><psi|, and
a* = w11 / (w11^2 + |w01|^2) = w11 / (w11 - det W).  a* > 1 exactly when
det W > 0.  R is PSD on [0, a*], and at a* its surviving eigenvector is a
pure state with the same RDMs as psi.

The code takes a* as the upper end of `qstate.psd_segment` for
R(a) = diag(1, 0) + a (W - diag(1, 0)), the one PSD-boundary routine of
the package.  The derivation above is that routine's k = 2 case: the
kernel block of W - diag(1, 0) is w11 > 0 and its Schur complement is
w00 - 1 - |w01|^2 / w11, so the end is w11 / (w11 - det W), the second
form above, which does not lean on tr W = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compat import rank2_given
from .qstate import (DensityMatrix, EigDecomposition, PureState,
                     ValidationError, hermitian_eig, psd_segment)
from .rdm import ptr_tuple, rdm_max_distance, require_equal_rdms


class TheoremViolation(RuntimeError):
    """Numerics contradict a proved statement; the run must fail loudly."""


def mixture_state(psi: PureState, omega: DensityMatrix,
                  a: float) -> np.ndarray:
    """(1-a)|psi><psi| + a*omega as a raw Hermitian unit-trace matrix.

    PSD is deliberately not guaranteed: the construction extends a beyond
    the legitimate density-matrix range.
    """
    require_equal_rdms(ptr_tuple(psi.projector()), ptr_tuple(omega))
    return (1.0 - a) * psi.projector().mat + a * omega.mat


def eigen2(z: float, u: complex) -> tuple[float, float]:
    """Eigenvalues of [[1/2 + z, conj(u)], [u, 1/2 - z]], low first."""
    s = float(np.sqrt(abs(u) ** 2 + z**2))
    return 0.5 - s, 0.5 + s


@dataclass(frozen=True)
class TwoLevelRestriction:
    """The mixture problem restricted to span(phi_1, phi_2) = span(psi, psi_2)."""

    phi1: np.ndarray = field(repr=False)
    phi2: np.ndarray = field(repr=False)
    p: float                      # omega eigenvalue on phi1
    c1: complex                   # psi = c1 phi1 + c2 phi2
    c2: complex
    psi2: np.ndarray = field(repr=False)   # orthonormal partner of psi
    w: np.ndarray = field(repr=False)      # omega in the {psi, psi2} basis

    def restriction(self, a: float) -> np.ndarray:
        """2x2 mixture matrix in the {psi, psi2} basis."""
        return (1.0 - a) * np.diag([1.0, 0.0]).astype(complex) + a * self.w

    def low_eigenvalue(self, a: float) -> float:
        r = self.restriction(a)
        z = 0.5 * float((r[0, 0] - r[1, 1]).real)
        return eigen2(z, complex(r[1, 0]))[0]


def two_level_restriction(psi: PureState,
                          omega: DensityMatrix) -> TwoLevelRestriction:
    return _two_level_restriction(psi, omega, hermitian_eig(omega.mat))


def _two_level_restriction(psi: PureState, omega: DensityMatrix,
                           dec: EigDecomposition) -> TwoLevelRestriction:
    phi1 = dec.eigenvectors[:, -1]
    phi2 = dec.eigenvectors[:, -2]
    p = float(dec.eigenvalues[-1])
    c1 = complex(np.vdot(phi1, psi.amps))
    c2 = complex(np.vdot(phi2, psi.amps))
    inside = abs(c1) ** 2 + abs(c2) ** 2
    if abs(inside - 1.0) > 1e-9:
        # psi outside span(phi1, phi2) would make the a=1/2 mixture rank 3
        raise TheoremViolation(
            f"psi is not in the range of omega: |c1|^2+|c2|^2 = {inside!r}")
    psi2 = np.conj(c2) * phi1 - np.conj(c1) * phi2
    psi2 /= np.linalg.norm(psi2)
    basis = np.stack([psi.amps, psi2], axis=1)
    w = basis.conj().T @ omega.mat @ basis
    return TwoLevelRestriction(phi1, phi2, p, c1, c2, psi2, w)


@dataclass(frozen=True)
class PartnerResult:
    partner: PureState
    a_star: float
    a_minus: float                # the other root of det, always 0.0:
                                  # the mixture is |psi><psi| there
    overlap: float                # |<psi|psi'>|
    rdm_residual: float
    mixture_weight: float         # lambda with omega ~ lam psi + (1-lam) psi'
    mixture_residual: float


def pure_partner_details(psi: PureState,
                         omega: DensityMatrix) -> PartnerResult:
    """The distinct pure state with psi's RDMs, with construction diagnostics.

    Each matrix is decomposed once: one hermitian_eig of omega feeds the
    purity test, the rank-2 test and the two-level restriction, and each
    of psi, omega and the partner has its projector and RDM tuple built
    once (psi's serves both the RDM check and the partner's residual).
    """
    dec = hermitian_eig(omega.mat)
    if dec.rank() < 2:
        raise ValidationError("omega is pure; need a mixed partner")
    psi_proj = psi.projector()
    psi_rdms = ptr_tuple(psi_proj)
    if not rank2_given(psi_rdms, omega, dec):
        raise TheoremViolation(
            f"omega has rank {dec.rank()} > 2 despite matching RDMs")
    res = _two_level_restriction(psi, omega, dec)
    w00, w11 = float(res.w[0, 0].real), float(res.w[1, 1].real)
    det_w = w00 * w11 - abs(complex(res.w[0, 1])) ** 2
    if not det_w > 0.0:
        raise ValidationError(f"det W = {det_w:.3e}: omega is numerically "
                              "degenerate on span(psi, psi2)")
    e0 = np.diag([1.0, 0.0])
    a_star = psd_segment(e0, res.w - e0)[1]  # the nonzero root of det R(a)
    r = res.restriction(a_star)
    vals, vecs = np.linalg.eigh(r)
    # take the surviving eigenvector (eigenvalue ~1), not the near-null one
    v = vecs[:, -1]
    partner_vec = v[0] * psi.amps + v[1] * res.psi2
    partner_vec /= np.linalg.norm(partner_vec)
    k = int(np.argmax(np.abs(partner_vec)))
    partner_vec = partner_vec * (np.abs(partner_vec[k]) / partner_vec[k])
    partner = PureState(psi.n, partner_vec)
    overlap = abs(complex(np.vdot(psi.amps, partner_vec)))
    if overlap >= 1.0 - 1e-8:
        raise TheoremViolation(
            f"constructed partner is not distinct: overlap {overlap!r}")
    partner_proj = partner.projector()
    rdm_res = rdm_max_distance(ptr_tuple(partner_proj), psi_rdms)
    if rdm_res > 1e-8:
        raise TheoremViolation(
            f"partner fails to reproduce psi's RDMs: residual {rdm_res:.3e}")
    lam, mix_res = _mixture_fit(psi_proj.mat, partner_proj.mat, omega.mat)
    if mix_res > 1e-7 or not 0.0 < lam < 1.0:
        raise TheoremViolation(
            f"omega is not a convex mixture of psi and the partner "
            f"(weight {lam!r}, residual {mix_res:.3e})")
    return PartnerResult(partner, a_star, 0.0, overlap,
                         rdm_res, lam, mix_res)


def _mixture_fit(p1: np.ndarray, p2: np.ndarray,
                 omega: np.ndarray) -> tuple[float, float]:
    """Least-squares weight lam for omega = lam p1 + (1-lam) p2."""
    d = p1 - p2
    num = float(np.real(np.einsum("ij,ji->", d.conj().T, omega - p2)))
    den = float(np.real(np.einsum("ij,ji->", d.conj().T, d)))
    lam = num / den
    resid = float(np.linalg.norm(lam * p1 + (1 - lam) * p2 - omega))
    return lam, resid


def pure_partner(psi: PureState, omega: DensityMatrix) -> PureState:
    """See pure_partner_details; returns only the partner state."""
    return pure_partner_details(psi, omega).partner
