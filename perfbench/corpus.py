"""Seeded operation corpora for the four benchmark workloads.

A workload is a list of passes and a pass is a short, fixed sequence of
operations.  Measured runs always cover whole passes, so every run sees the
same mix of qubit counts and state kinds.  Every input is derived from the
seed alone; rdmkit receives only the generated states, state files and
command-line arguments, the way a user would hand them over.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rdmkit
from rdmkit import cli

WORKLOADS = ("verdict-haar", "verdict-ghz", "partner-proof", "detect-scale")

# distinct passes generated per workload; runs cycle through them.  Enough
# that a run at the current speed rarely repeats an input, few enough that
# generating them stays a small part of set-up.
PASSES = {"verdict-haar": 6, "verdict-ghz": 6, "partner-proof": 8,
          "detect-scale": 4}

# acceptance bounds, taken from the CLI's own gates and the acceptance tests
SUP_TMAX_DETERMINED = 1e-6
WITNESS_RESIDUAL = 1e-9
OVERLAP_TOL = 1e-6
PARTNER_RDM_RESIDUAL = 1e-8
PROOF_RESIDUAL = 1e-9
MAGNITUDE_TOL = 1e-8


@dataclass
class Op:
    """One operation: a call into rdmkit and the check of its output.

    `expect` is what a correct run returns (an exit code for CLI calls,
    the GHZ-type flag for detection); `check(result, expect)` gives None
    for a correct output and a one-line reason otherwise.  `warmup` is the
    untimed call made once per qubit count during set-up.
    """

    n: int
    kind: str
    call: Callable[[], object]
    check: Callable[[object, object], str | None]
    expect: object
    warmup: Callable[[], object]

    def verify(self, result) -> str | None:
        return self.check(result, self.expect)


# ------------------------------------------------------------------ states

def _haar(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def _local_unitaries(rng, n):
    out = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def _rotate(us, amps):
    """Apply u_1 x ... x u_n to an n-qubit vector, one qubit at a time."""
    t = amps.reshape((2,) * len(us))
    for j, u in enumerate(us):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [j])), 0, j)
    return t.reshape(-1)


def _ghz_amps(n, a, b):
    v = np.zeros(2**n, dtype=complex)
    v[0], v[-1] = a, b
    return v


def _w_amps(n):
    v = np.zeros(2**n, dtype=complex)
    v[[1 << j for j in range(n)]] = 1 / np.sqrt(n)
    return v


def _ghz_magnitudes(rng, degenerate):
    """(a, b) with |a|^2 + |b|^2 = 1; |a| = |b| on the degenerate branch."""
    b2 = 0.5 if degenerate else rng.uniform(0.05, 0.4)
    phase = np.exp(2j * np.pi * rng.uniform())
    return np.sqrt(1 - b2), np.sqrt(b2) * phase


def _rotated_ghz(rng, n, degenerate):
    """(amps, basis, a, b): a u_0 + b u_1 with u_0, u_1 the rotated
    |0...0>, |1...1> (the columns of basis)."""
    a, b = _ghz_magnitudes(rng, degenerate)
    us = _local_unitaries(rng, n)
    basis = np.stack([_rotate(us, _ghz_amps(n, 1, 0)),
                      _rotate(us, _ghz_amps(n, 0, 1))], axis=1)
    return basis @ np.array([a, b]), basis, a, b


def _pure(n, amps):
    return rdmkit.PureState(n, amps)


# -------------------------------------------------------------- CLI calls

def _cli(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _report(result, code):
    """(parsed JSON report, None) or (None, reason) for a CLI result."""
    got, out, err = result
    if got != code:
        return None, f"exit {got}, expected {code}: {err.strip()[:160]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"


def _check_verdict(result, expect):
    rep, why = _report(result, expect)
    if why:
        return why
    if rep.get("anomaly") is not None:
        return f"anomaly: {rep['anomaly']}"
    if expect == cli.EXIT_OK:
        if rep.get("determined") is not True:
            return f"determined={rep.get('determined')!r}"
        if not rep["numeric_sup_tmax"] <= SUP_TMAX_DETERMINED:
            return f"numeric_sup_tmax {rep['numeric_sup_tmax']!r}"
        return None
    if rep.get("determined") is not False:
        return f"determined={rep.get('determined')!r}"
    res = (rep.get("witness_family") or {}).get("rdm_residual")
    if res is None or not res <= WITNESS_RESIDUAL:
        return f"witness rdm_residual {res!r}"
    return None


def _verdict_op(n, kind, path, seed, expect):
    argv = ["verdict", path, "--seed", str(seed)]
    # the warm-up fills the per-n caches (full-weight basis, word stack)
    # without paying for the 64 search restarts
    return Op(n, kind, _cli(argv), _check_verdict, expect,
              _cli(argv + ["--restarts", "1"]))


def _partner_op(n, psi_path, omega_path, out_path, overlap):
    def check(result, expect):
        rep, why = _report(result, expect)
        if why:
            return why
        if not abs(rep["overlap"] - overlap) <= OVERLAP_TOL:
            return f"overlap {rep['overlap']!r}, expected {overlap!r}"
        if not rep["rdm_residual"] <= PARTNER_RDM_RESIDUAL:
            return f"partner rdm_residual {rep['rdm_residual']!r}"
        return None

    call = _cli(["partner", psi_path, omega_path, "--out", out_path])
    return Op(n, "partner", call, check, cli.EXIT_OK, call)


def _proofcheck_op(n, a, b, z):
    def check(result, expect):
        rep, why = _report(result, expect)
        if why:
            return why
        if not rep["max_residual"] <= PROOF_RESIDUAL:
            return f"max_residual {rep['max_residual']!r}"
        return None

    call = _cli(["proofcheck", "--n", str(n), "--alpha", str(complex(a)),
                 "--beta", str(complex(b)), "--z", str(complex(z))])
    return Op(n, "proofcheck", call, check, cli.EXIT_OK, call)


def _detect_op(n, kind, psi, magnitudes):
    def call():
        return rdmkit.detect_ghz_type(psi)

    def check(cert, expect):
        if cert.inconclusive:
            return "inconclusive"
        if cert.is_ghz != expect:
            return f"is_ghz={cert.is_ghz}, expected {expect}"
        if expect:
            got = (abs(cert.params.a), abs(cert.params.b))
            err = max(abs(g - m) for g, m in zip(got, magnitudes))
            if not err <= MAGNITUDE_TOL:
                return f"magnitudes {got}, expected {magnitudes}"
        return None

    return Op(n, kind, call, check, magnitudes is not None, call)


# -------------------------------------------------------------- workloads

def _verdict_haar(rng, workdir, p):
    """Three Haar states, a locally rotated W state and a rotated product
    state at n=3, and one n=4 state (Haar, W and product in turn) per pass.

    A run makes 30 to 40 verdicts, and an n=4 verdict takes three times as
    long as an n=3 one.  With nearly as many n=4 calls as n=3 calls (as in
    criterion 2's 3:2 mix) the median or the tail (the 11th slowest) falls
    on the boundary between the two groups and jumps from run to run.  With
    five n=3 calls to one n=4 call both stay inside the n=3 group.
    """
    ops = []
    n4_kind = ("haar", "w", "product")[p % 3]
    for k, (n, kind) in enumerate(((3, "haar"), (3, "haar"), (3, "haar"),
                                   (3, "w"), (3, "product"), (4, n4_kind))):
        if kind == "haar":
            amps = _haar(rng, n)
        else:
            base = _w_amps(n) if kind == "w" else _ghz_amps(n, 1, 0)
            amps = _rotate(_local_unitaries(rng, n), base)
        path = os.path.join(workdir, f"{kind}-{p}-{k}.json")
        cli.save_state(path, _pure(n, amps))
        ops.append(_verdict_op(n, kind, path, rng.integers(2**31),
                               cli.EXIT_OK))
    return ops


def _verdict_ghz(rng, workdir, p):
    """Locally rotated generalized GHZ states with |a| > |b|, five at n=3
    and one at n=4 per pass, for the reason given in _verdict_haar.
    States with |a| = |b| are left out: the detector's degenerate branch
    gets a few of them wrong (see README.md)."""
    ops = []
    for n in (3, 3, 3, 3, 3, 4):
        amps, _, _, _ = _rotated_ghz(rng, n, False)
        path = os.path.join(workdir, f"ghz-{p}-{len(ops)}.json")
        cli.save_state(path, _pure(n, amps))
        ops.append(_verdict_op(n, "gapped", path, rng.integers(2**31),
                               cli.EXIT_UNDETERMINED))
    return ops


def _partner_proof(rng, workdir, p):
    """Alternating partner and proofcheck calls at n=3..6, with n=5 twice so
    that the median latency falls inside the n=5 partner calls rather than
    between two qubit counts.  OMEGA is the rotated GHZ family member at a
    real z in (-0.9, 0.9), so it shares psi's RDMs and has rank 2."""
    ops = []
    for k, n in enumerate((3, 4, 5, 5, 6)):
        amps, basis, a, b = _rotated_ghz(rng, n, (p + n) % 4 == 0)
        # a real z makes the partner a u_0 - b u_1, whose overlap with psi
        # is ||a|^2 - |b|^2|
        z = rng.uniform(-0.9, 0.9)
        off = z * a * np.conj(b)
        fam = np.array([[abs(a)**2, off], [np.conj(off), abs(b)**2]])
        omega = basis @ fam @ basis.conj().T
        psi_path = os.path.join(workdir, f"psi-{p}-{k}.json")
        omega_path = os.path.join(workdir, f"omega-{p}-{k}.json")
        cli.save_state(psi_path, _pure(n, amps))
        cli.save_state(omega_path,
                       rdmkit.DensityMatrix(n, 0.5 * (omega + omega.conj().T)))
        ops.append(_partner_op(n, psi_path, omega_path,
                               os.path.join(workdir, f"partner-{n}.json"),
                               abs(abs(a)**2 - abs(b)**2)))
        a, b = _ghz_magnitudes(rng, (p + n) % 4 == 2)
        z = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        ops.append(_proofcheck_op(n, a, b, z))
    return ops


def _detect_scale(rng, workdir, p):
    """Library detection at n=8..11 on Haar, gapped-GHZ (|a| > |b|) and
    locally rotated product states.  |a| = |b| states are left out, as in
    verdict-ghz.  n=10 comes twice so that the median latency falls inside
    the n=10 calls rather than between n=9 and n=10, ten times apart."""
    ops = []
    for n in (8, 9, 10, 10, 11):
        ops.append(_detect_op(n, "haar", _pure(n, _haar(rng, n)), None))
        amps, _, a, b = _rotated_ghz(rng, n, False)
        ops.append(_detect_op(n, "gapped", _pure(n, amps), (abs(a), abs(b))))
        prod = _rotate(_local_unitaries(rng, n), _ghz_amps(n, 1, 0))
        ops.append(_detect_op(n, "product", _pure(n, prod), None))
    return ops


_GENERATORS = {"verdict-haar": _verdict_haar, "verdict-ghz": _verdict_ghz,
             "partner-proof": _partner_proof, "detect-scale": _detect_scale}


def build(workload: str, seed: int, workdir: str,
          passes: int | None = None) -> list[list[Op]]:
    """The workload's passes for this seed; state files go under workdir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    count = PASSES[workload] if passes is None else passes
    return [_GENERATORS[workload](rng, workdir, p) for p in range(count)]


def warm_up(passes: list[list[Op]]) -> None:
    """One untimed warm-up call per distinct qubit count."""
    seen = set()
    for op in (op for ops in passes for op in ops):
        if op.n not in seen:
            seen.add(op.n)
            op.warmup()
