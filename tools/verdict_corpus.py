"""Record `rdmkit verdict`, `proofcheck` and `partner` on a seeded corpus,
and compare two records.

    python3 tools/verdict_corpus.py dump OUT.json [--src DIR] [--nmax N]
                                                  [--seed S]
    python3 tools/verdict_corpus.py compare A.json B.json

`dump` imports rdmkit from DIR (default: the src/ of the checkout this
file sits in), runs the commands in process at n = 2..nmax and writes one
entry per call.

* `verdict` on every state of the corpus: the verdict, the exit code, the
  anomaly text, the cross-check's method, k (`kernel_dim`) and
  `null_dim`, `witness_rdm_residual` and `numeric_sup_tmax`.  The states
  are Haar states, locally rotated W and product states, rotated GHZ
  states with |a| > |b| and with |a| = |b|, near-GHZ states (rotated
  GHZ(sqrt 0.7, sqrt 0.3) plus eps times a Haar vector, eps log-uniform
  in [1e-12, 1e-3]), Dicke states, star, complete, ring and line graph
  states, and logical states of the 5-qubit code.
* `proofcheck` on the fixed (alpha, beta, z) of PROOFCHECK_ARGS, the last
  of which is not normalised: the exit code and `max_residual`.
* `partner` with omega the rotated GHZ family member at a real z in
  (-0.9, 0.9), for |a| > |b| and |a| = |b|, and with omega the maximally
  mixed state, which shares no RDM with psi: the exit code, `overlap` and
  `rdm_residual`.

The corpus is a function of the seed alone, drawn with numpy and no rdmkit
code, so that two trees see the same inputs.

`compare` exits 1 when an entry's verdict, exit code, anomaly, method or
count (k, `null_dim`) differs, or when the two files hold different
entries, and 0 otherwise.  It prints every such change, grouped by
family, and the largest drift of each float field against the bound
stated in the first file; float drift alone does not change the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

FORMAT = "rdmkit-verdict-corpus-v1"
DISCRETE = ("determined", "exit", "anomaly", "method", "k", "null_dim")
# the factored witness residual must match a dense one to rounding, and so
# must proofcheck's and partner's residuals and the partner's overlap; the
# step depends on the basis of N that the face check steps along
BOUNDS = {"witness_rdm_residual": 1e-13, "numeric_sup_tmax": 1e-9,
          "max_residual": 1e-13, "overlap": 1e-12, "rdm_residual": 1e-13}
PROOFCHECK_ARGS = (("0.8", "0.6j", "0.3+0.2j"), ("0.6", "-0.8", "1"),
                   (str(np.sqrt(0.5)), str(np.sqrt(0.5)), "-0.5j"),
                   ("0.8", "0.8", "0"))
FIVE_QUBIT_CODE = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ states

def _haar(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def _local_unitaries(rng, n):
    """n Haar-random 2x2 unitaries."""
    us = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        us.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return us


def _apply(us, amps):
    """Apply u_1 x ... x u_n to an n-qubit vector."""
    t = amps.reshape((2,) * len(us))
    for j, u in enumerate(us):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [j])), 0, j)
    return t.reshape(-1)


def _rotate(rng, amps):
    """Apply Haar-random u_1 x ... x u_n to an n-qubit vector."""
    return _apply(_local_unitaries(rng, int(np.log2(len(amps)))), amps)


def _ghz(n, a, b):
    v = np.zeros(2**n, dtype=complex)
    v[0], v[-1] = a, b
    return v


def _dicke(n, w):
    v = np.array([bin(x).count("1") == w for x in range(2**n)], dtype=complex)
    return v / np.linalg.norm(v)


def _graph_state(n, edges):
    """prod_{(i, j) in edges} CZ_ij |+>^n, qubit 1 the most significant bit."""
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    parity = sum((bits[:, i] * bits[:, j] for i, j in edges),
                 np.zeros(2**n, dtype=int))
    return (-1.0 + 0j) ** parity / np.sqrt(2**n)


def _graphs(n):
    ring = [(i, (i + 1) % n) for i in range(n)] if n >= 3 else [(0, 1)]
    return {"star": [(0, j) for j in range(1, n)],
            "complete": [(i, j) for i in range(n) for j in range(i + 1, n)],
            "ring": ring, "line": [(i, i + 1) for i in range(n - 1)]}


def _code_state(rng):
    """A Haar-random logical state of the 5-qubit code."""
    pauli = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
             "Z": np.diag([1, -1])}
    proj = np.eye(32, dtype=complex)
    for word in FIVE_QUBIT_CODE:
        m = np.ones((1, 1))
        for letter in word:
            m = np.kron(m, pauli[letter])
        proj = proj @ (np.eye(32) + m) / 2
    v = proj @ _haar(rng, 5)
    return v / np.linalg.norm(v)


def corpus(seed: int, nmax: int):
    """(id, family, n, eps, amplitudes) for every state, in a fixed order."""
    for n in range(2, nmax + 1):
        rng = np.random.default_rng([seed, n])
        for i in range(3):
            yield f"haar-{n}-{i}", "haar", n, None, _haar(rng, n)
        w = np.zeros(2**n, dtype=complex)
        w[[1 << j for j in range(n)]] = 1 / np.sqrt(n)
        yield f"w-{n}", "w", n, None, _rotate(rng, w)
        yield f"product-{n}", "product", n, None, _rotate(rng, _ghz(n, 1, 0))
        for i in range(2):
            b2 = rng.uniform(0.05, 0.45)
            phase = np.exp(2j * np.pi * rng.uniform())
            yield (f"ghz-gapped-{n}-{i}", "ghz-gapped", n, None,
                   _rotate(rng, _ghz(n, np.sqrt(1 - b2), np.sqrt(b2) * phase)))
            phase = np.exp(2j * np.pi * rng.uniform())
            yield (f"ghz-equal-{n}-{i}", "ghz-equal", n, None,
                   _rotate(rng, _ghz(n, np.sqrt(0.5), np.sqrt(0.5) * phase)))
        for i in range(6):
            eps = float(10 ** rng.uniform(-12, -3))
            v = _ghz(n, np.sqrt(0.7), np.sqrt(0.3)) + eps * _haar(rng, n)
            yield (f"near-ghz-{n}-{i}", "near-ghz", n, eps,
                   _rotate(rng, v / np.linalg.norm(v)))
        for wt in range(1, n):
            yield f"dicke-{n}-{wt}", "dicke", n, None, _dicke(n, wt)
        if n >= 3:
            for name, edges in _graphs(n).items():
                yield (f"graph-{name}-{n}", "graph", n, None,
                       _rotate(rng, _graph_state(n, edges)))
        if n == 5:
            for i in range(2):
                yield f"code-5-{i}", "code", n, None, _code_state(rng)


def partner_inputs(seed: int, nmax: int):
    """(id, n, psi amplitudes, omega matrix) for every `partner` call.

    psi = a u_0 + b u_1 with u_0, u_1 the rotated |0...0>, |1...1> (the
    columns of B), and omega = B [[|a|^2, z a b*], [z* a* b, |b|^2]] B^dag,
    as the benchmark's partner-proof corpus builds them.  The draws come
    from their own generator, so the verdict corpus does not move."""
    for n in range(2, nmax + 1):
        rng = np.random.default_rng([seed, n, 1])
        for kind, b2 in (("gapped", rng.uniform(0.05, 0.4)), ("equal", 0.5)):
            a = np.sqrt(1 - b2)
            b = np.sqrt(b2) * np.exp(2j * np.pi * rng.uniform())
            us = _local_unitaries(rng, n)
            basis = np.stack([_apply(us, _ghz(n, 1, 0)),
                              _apply(us, _ghz(n, 0, 1))], axis=1)
            off = rng.uniform(-0.9, 0.9) * a * np.conj(b)
            fam = np.array([[abs(a)**2, off], [np.conj(off), abs(b)**2]])
            omega = basis @ fam @ basis.conj().T
            yield (f"partner-{kind}-{n}", n, basis @ np.array([a, b]),
                   0.5 * (omega + omega.conj().T))
        yield (f"partner-unrelated-{n}", n, _haar(rng, n),
               np.eye(2**n, dtype=complex) / 2**n)


# -------------------------------------------------------------------- dump

def _run(cli, argv):
    """Exit code and parsed JSON report ({} when none) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue().strip() else {}


def _verdict_entry(cli, path):
    code, rep = _run(cli, ["verdict", path])
    cross = rep.get("cross_check") or {}
    return {"determined": rep.get("determined"), "exit": code,
            "anomaly": rep.get("anomaly"), "method": cross.get("method"),
            "k": cross.get("kernel_dim"), "null_dim": cross.get("null_dim"),
            "witness_rdm_residual":
                (rep.get("witness_family") or {}).get("rdm_residual"),
            "numeric_sup_tmax": rep.get("numeric_sup_tmax")}


def dump(out_path: str, src: str, nmax: int, seed: int) -> int:
    sys.path.insert(0, src)
    import rdmkit
    from rdmkit import cli

    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for ident, family, n, eps, amps in corpus(seed, nmax):
            path = os.path.join(tmp, f"{ident}.json")
            cli.save_state(path, rdmkit.PureState(n, amps))
            entries.append(dict(id=ident, family=family, n=n, eps=eps,
                                **_verdict_entry(cli, path)))
        for n in range(2, nmax + 1):
            for i, (alpha, beta, z) in enumerate(PROOFCHECK_ARGS):
                code, rep = _run(cli, ["proofcheck", f"--n={n}",
                                       f"--alpha={alpha}", f"--beta={beta}",
                                       f"--z={z}"])
                entries.append(dict(id=f"proofcheck-{n}-{i}",
                                    family="proofcheck", n=n, eps=None,
                                    exit=code,
                                    max_residual=rep.get("max_residual")))
        for ident, n, amps, omega in partner_inputs(seed, nmax):
            psi_path = os.path.join(tmp, f"{ident}-psi.json")
            omega_path = os.path.join(tmp, f"{ident}-omega.json")
            cli.save_state(psi_path, rdmkit.PureState(n, amps))
            cli.save_state(omega_path, rdmkit.DensityMatrix(n, omega))
            code, rep = _run(cli, ["partner", psi_path, omega_path])
            entries.append(dict(id=ident, family="partner", n=n, eps=None,
                                exit=code, overlap=rep.get("overlap"),
                                rdm_residual=rep.get("rdm_residual")))
    doc = {"format": FORMAT, "seed": seed, "nmax": nmax,
           "rdmkit": os.path.abspath(os.path.dirname(rdmkit.__file__)),
           "bounds": BOUNDS, "entries": entries}
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{len(entries)} entries written to {out_path}")
    return 0


# ----------------------------------------------------------------- compare

def compare(path_a: str, path_b: str) -> int:
    docs = []
    for path in (path_a, path_b):
        with open(path) as fh:
            docs.append(json.load(fh))
    a, b = ({e["id"]: e for e in doc["entries"]} for doc in docs)
    changed = sorted(set(a) ^ set(b))
    for ident in changed:
        print(f"only in {path_a if ident in a else path_b}: {ident}")
    counts = Counter()
    for ident in (i for i in a if i in b):
        for key in DISCRETE:
            if a[ident].get(key) != b[ident].get(key):
                counts[a[ident]["family"], key] += 1
                changed.append(ident)
                print(f"{ident}: {key} {a[ident].get(key)!r} -> "
                      f"{b[ident].get(key)!r}")
    for (family, key), count in sorted(counts.items()):
        print(f"changed: {family} {key} on {count} entries")
    for key, bound in docs[0]["bounds"].items():
        pairs = [(a[i].get(key), b[i].get(key)) for i in a if i in b]
        drift = [abs(x - y) for x, y in pairs
                 if x is not None and y is not None]
        missing = sum((x is None) != (y is None) for x, y in pairs)
        over = sum(d > bound for d in drift)
        print(f"drift: {key} max {max(drift, default=0.0):.3e} over "
              f"{len(drift)} pairs, {over} above the bound {bound:.0e}, "
              f"{missing} set on one side only")
    print(f"{len(set(changed))} of {len(set(a) | set(b))} entries changed")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("dump")
    sp.add_argument("out")
    sp.add_argument("--src", default=str(ROOT / "src"))
    sp.add_argument("--nmax", type=int, default=6)
    sp.add_argument("--seed", type=int, default=2021)
    sp = sub.add_parser("compare")
    sp.add_argument("a")
    sp.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.out, args.src, args.nmax, args.seed)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
