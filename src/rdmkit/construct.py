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

from dataclasses import dataclass

import numpy as np

from .compat import rank2_given
from .qstate import (DensityMatrix, EigDecomposition, PureState,
                     ValidationError, hermitian_eig, psd_segment)
from .rdm import rdm_distances


class TheoremViolation(RuntimeError):
    """Numerics contradict a proved statement; the run must fail loudly."""


def eigen2(z: float, u: complex) -> tuple[float, float]:
    """Eigenvalues of [[1/2 + z, conj(u)], [u, 1/2 - z]], low first."""
    s = float(np.sqrt(abs(u) ** 2 + z**2))
    return 0.5 - s, 0.5 + s


def _two_level_restriction(
        psi: PureState, omega: DensityMatrix,
        dec: EigDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """(psi2, w): {psi, psi2} is an orthonormal basis of omega's range,
    and w is omega in that basis (the W of the module docstring)."""
    phi1 = dec.eigenvectors[:, -1]
    phi2 = dec.eigenvectors[:, -2]
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
    return psi2, basis.conj().T @ omega.mat @ basis


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
    purity test, the rank-2 test and the two-level restriction.  No RDM
    tuple is built: `rdm.rdm_distances` compares psi's RDMs with omega's
    dense matrix (the rank-2 test's gate) and with the partner's
    amplitudes (`rdm_residual`, in factored form), and the mixture fit
    takes the raw projectors of psi and of the partner, both validated
    as pure states.
    """
    dec = hermitian_eig(omega.mat)
    if dec.rank() < 2:
        raise ValidationError("omega is pure; need a mixed partner")
    if not rank2_given(psi, omega, dec):
        raise TheoremViolation(
            f"omega has rank {dec.rank()} > 2 despite matching RDMs")
    psi2, w = _two_level_restriction(psi, omega, dec)
    w00, w11 = float(w[0, 0].real), float(w[1, 1].real)
    det_w = w00 * w11 - abs(complex(w[0, 1])) ** 2
    if not det_w > 0.0:
        raise ValidationError(f"det W = {det_w:.3e}: omega is numerically "
                              "degenerate on span(psi, psi2)")
    e0 = np.diag([1.0, 0.0])
    a_star = psd_segment(e0, w - e0)[1]  # the nonzero root of det R(a)
    vals, vecs = np.linalg.eigh((1.0 - a_star) * e0 + a_star * w)
    # take the surviving eigenvector (eigenvalue ~1), not the near-null one
    v = vecs[:, -1]
    partner_vec = v[0] * psi.amps + v[1] * psi2
    partner_vec /= np.linalg.norm(partner_vec)
    k = int(np.argmax(np.abs(partner_vec)))
    partner_vec = partner_vec * (np.abs(partner_vec[k]) / partner_vec[k])
    partner = PureState(psi.n, partner_vec)
    overlap = abs(complex(np.vdot(psi.amps, partner_vec)))
    if overlap >= 1.0 - 1e-8:
        raise TheoremViolation(
            f"constructed partner is not distinct: overlap {overlap!r}")
    rdm_res = float(np.max(rdm_distances(psi, partner.amps)))
    if rdm_res > 1e-8:
        raise TheoremViolation(
            f"partner fails to reproduce psi's RDMs: residual {rdm_res:.3e}")
    lam, mix_res = _mixture_fit(np.outer(psi.amps, psi.amps.conj()),
                                np.outer(partner.amps, partner.amps.conj()),
                                omega.mat)
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
