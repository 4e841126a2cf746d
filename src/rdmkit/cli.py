"""Command-line surface: state-file I/O and the batch harnesses.

State files are JSON with explicit [re, im] pairs and a version field;
amplitudes follow the package index convention (qubit 1 is the most
significant bit).  Exit codes: 0 ok/determined, 2 input error,
3 undetermined, 4 inconclusive, 5 theorem-violation anomaly.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, compat, construct, ghz, qstate, schmidt
from .qstate import DensityMatrix, PureState, ValidationError
from .rdm import ptr_tuple, rdm_max_distance

FORMAT_TAG = "rdmkit-state-v1"
ORDERING_NOTE = "qubit 1 is the most significant bit of the flat index"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3
EXIT_INCONCLUSIVE = 4
EXIT_ANOMALY = 5

# proofcheck and family build the family member as a dense 2^n x 2^n
# matrix.  At n = 10 they took 2.8 s and 6.3 s, at 144 and 191 MB peak
# RSS (2-core machine); each further qubit multiplies memory by 4.
DENSE_NMAX = 10


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _pairs(arr: np.ndarray):
    return [[float(x.real), float(x.imag)] for x in arr]


def save_state(path: str, state) -> None:
    if isinstance(state, PureState):
        doc = {"format": FORMAT_TAG, "kind": "pure", "n": state.n,
               "ordering": ORDERING_NOTE, "data": _pairs(state.amps)}
    elif isinstance(state, DensityMatrix):
        doc = {"format": FORMAT_TAG, "kind": "density", "n": state.n,
               "ordering": ORDERING_NOTE,
               "data": [_pairs(row) for row in state.mat]}
    else:
        raise TypeError(type(state))
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid token at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos})")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise CliError(f"{path}: missing or unknown format tag")
    kind = doc.get("kind")
    n = doc.get("n")
    data = doc.get("data")
    if kind not in ("pure", "density") or not isinstance(n, int) or n < 1:
        raise CliError(f"{path}: bad kind/n fields")
    try:
        # 2**n is formed only once it cannot exceed len(data)
        if n >= len(data).bit_length() or len(data) != 2**n:
            what = "amplitudes" if kind == "pure" else "matrix rows"
            raise CliError(f"{path}: n = {n} needs 2^{n} {what}, "
                           f"got {len(data)}")
        if kind == "pure":
            amps = np.array([complex(re, im) for re, im in data])
            return PureState(n, amps)
        mat = np.array([[complex(re, im) for re, im in row] for row in data])
        return DensityMatrix(n, mat)
    except CliError:
        raise
    except ValidationError as exc:
        raise CliError(f"{path}: invariant violated: {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{path}: malformed data: {exc}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _report(args, **results):
    doc = {"command": " ".join(args._argv),
           "elapsed_s": round(time.perf_counter() - args._t0, 3),
           "versions": {"rdmkit": __version__, "numpy": np.__version__}}
    doc.update(results)
    print(json.dumps(doc, indent=2, default=_jsonable))
    return doc


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(type(obj))


def _require_n(n: int, nmax: int) -> None:
    if not 2 <= n <= nmax:
        raise CliError(f"n must be in 2..{nmax}, got {n}")


def _parse_complex(s: str) -> complex:
    try:
        return complex(s.replace(" ", ""))
    except ValueError:
        raise CliError(f"cannot parse complex number {s!r}")


def cmd_rdm(args) -> int:
    state = load_state(args.input)
    rho = state.projector() if isinstance(state, PureState) else state
    if rho.n < 2:
        raise CliError("n >= 2 required")
    tup = ptr_tuple(rho)
    _report(args,
            input={"path": args.input, "sha256": _digest(args.input)},
            n=rho.n,
            consistency_residual=tup.consistency_residual() if rho.n >= 3 else 0.0,
            parts=[{"traced_qubit": j + 1,
                    "matrix": [_pairs(row) for row in p.mat]}
                   for j, p in enumerate(tup.parts)])
    return EXIT_OK


def _certificate_summary(cert):
    out = {"is_ghz": cert.is_ghz, "inconclusive": cert.inconclusive,
           "residual": cert.residual, "diagnostics": cert.diagnostics}
    if cert.params is not None:
        out["magnitudes"] = [abs(cert.params.a), abs(cert.params.b)]
    return out


def _cross_check_summary(verdict):
    face = verdict.face
    return {"method": verdict.cross_check, "parent_gap": verdict.parent_gap,
            "kernel_dim": face and face.kernel_dim,
            "null_dim": face and face.null_dim,
            "min_nonzero_singular": face and face.min_singular,
            "lambda_min": face and face.lambda_min}


def cmd_verdict(args) -> int:
    state = load_state(args.input)
    if not isinstance(state, PureState):
        raise CliError("verdict is defined for pure states only")
    if state.n < 2:
        raise CliError("n >= 2 required")
    verdict = compat.determinedness(state, tol=args.tol,
                                    restarts=args.restarts, seed=args.seed)
    results = {
        "input": {"path": args.input, "sha256": _digest(args.input)},
        "seed": args.seed, "restarts": args.restarts,
        "determined": verdict.determined,
        "numeric_sup_tmax": verdict.numeric_sup_tmax,
        "samples_used": verdict.samples_used,
        "cross_check": _cross_check_summary(verdict),
        "certificate": _certificate_summary(verdict.ghz_certificate),
        "anomaly": verdict.anomaly,
    }
    if verdict.witness_family is not None:
        wf = verdict.witness_family
        results["witness_family"] = {
            "magnitudes": [abs(wf.params.a), abs(wf.params.b)],
            "z_disk": "members are |a|^2 P_u + |b|^2 P_v + z a b* cross "
                      "terms for |z| <= 1; pure iff |z| = 1",
            "local_bases": [[_pairs(u), _pairs(v)] for u, v in wf.local_bases],
            "rdm_residual": verdict.witness_rdm_residual,
        }
    _report(args, **results)
    if verdict.anomaly:
        return EXIT_ANOMALY
    if verdict.determined is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if verdict.determined else EXIT_UNDETERMINED


def cmd_partner(args) -> int:
    psi = load_state(args.psi)
    omega = load_state(args.omega)
    if not isinstance(psi, PureState) or not isinstance(omega, DensityMatrix):
        raise CliError("need a pure psi file and a density omega file")
    try:
        result = construct.pure_partner_details(psi, omega)
    except construct.TheoremViolation as exc:
        _report(args, error=str(exc))
        return EXIT_ANOMALY
    if args.out:
        save_state(args.out, result.partner)
    _report(args,
            psi={"path": args.psi, "sha256": _digest(args.psi)},
            omega={"path": args.omega, "sha256": _digest(args.omega)},
            a_star=result.a_star,
            legitimate_interval=[result.a_minus, result.a_star],
            overlap=result.overlap,
            rdm_residual=result.rdm_residual,
            mixture_weight=result.mixture_weight,
            mixture_residual=result.mixture_residual,
            out=args.out)
    return EXIT_OK


def _random_ghz_params(n, rng):
    b2 = rng.uniform(0.05, 0.5)
    phase = np.exp(2j * np.pi * rng.uniform())
    return ghz.GhzParams(n, np.sqrt(1 - b2), np.sqrt(b2) * phase)


def cmd_sweep(args) -> int:
    _require_n(args.n, compat.CROSS_CHECK_NMAX)
    if args.samples < 1:
        raise CliError(f"samples must be >= 1, got {args.samples}")
    n = args.n
    counts = {"determined": 0, "undetermined": 0, "inconclusive": 0,
              "anomalies": 0, "rank2_failures": 0}
    worst_constraint = 0.0
    details = []
    for s in range(args.samples):
        rng = np.random.default_rng([args.seed & 0xFFFFFFFFFFFFFFFF, n, s])
        is_ghz_sample = s % 2 == 1
        if is_ghz_sample:
            params = _random_ghz_params(n, rng)
            us = qstate.random_local_unitaries(n, args.seed * 1000003 + s)
            psi = qstate.apply_local_unitaries(
                ghz.make_ghz(n, params.a, params.b), us)
        else:
            psi = qstate.haar_random_state(n, args.seed * 1000003 + s)
        verdict = compat.determinedness(psi, restarts=args.restarts,
                                        seed=args.seed + s)
        if verdict.determined is None:
            counts["inconclusive"] += 1
        elif verdict.determined:
            counts["determined"] += 1
        else:
            counts["undetermined"] += 1
        if verdict.anomaly:
            counts["anomalies"] += 1
        sample = {"index": s, "kind": "ghz" if is_ghz_sample else "haar",
                  "determined": verdict.determined,
                  "sup_tmax": verdict.numeric_sup_tmax}
        if is_ghz_sample and verdict.witness_family is not None:
            z = 0.8 * np.exp(2j * np.pi * rng.uniform())
            omega = verdict.witness_family.member(z)
            if not compat.rank2_check(psi, omega):
                counts["rank2_failures"] += 1
            pur = schmidt.purify(omega)
            envs = schmidt.extract_env_vectors_all(pur, psi)
            res = schmidt.main_constraint_max_residual(envs, psi)
            worst_constraint = max(worst_constraint, res)
            sample["main_constraint_residual"] = res
        details.append(sample)
    _report(args, n=n, samples=args.samples, seed=args.seed,
            counts=counts, max_main_constraint_residual=worst_constraint,
            details=details)
    violations = counts["anomalies"] + counts["rank2_failures"]
    return EXIT_ANOMALY if violations else EXIT_OK


def cmd_proofcheck(args) -> int:
    _require_n(args.n, DENSE_NMAX)
    a = _parse_complex(args.alpha)
    b = _parse_complex(args.beta)
    z = _parse_complex(args.z)
    if abs(z) > 1:
        raise CliError(f"|z| = {abs(z)} > 1")
    try:
        params = ghz.GhzParams(args.n, a, b)
    except ValidationError as exc:
        raise CliError(str(exc))
    psi = ghz.make_ghz(args.n, a, b)
    omega = ghz.ghz_family(params, z)
    pur = schmidt.purify(omega)
    envs = schmidt.extract_env_vectors_all(pur, psi)
    relations = {}
    for env in envs:
        for name, val in env.orthonormality_residuals().items():
            relations[name] = max(relations.get(name, 0.0), val)
    constraint = schmidt.main_constraint_max_residual(envs, psi)
    _report(args, n=args.n, alpha=a, beta=b, z=z,
            env_dim=pur.env_dim,
            orthonormality_residuals=relations,
            main_constraint_residual=constraint,
            max_residual=max(max(relations.values()), constraint))
    return EXIT_OK


def cmd_family(args) -> int:
    _require_n(args.n, DENSE_NMAX)
    a = _parse_complex(args.alpha)
    b = _parse_complex(args.beta)
    z = _parse_complex(args.z)
    try:
        params = ghz.GhzParams(args.n, a, b)
        member = ghz.ghz_family(params, z)
    except ValidationError as exc:
        raise CliError(str(exc))
    save_state(args.out, member)
    ref = ghz.make_ghz(args.n, a, b).projector()
    _report(args, n=args.n, alpha=a, beta=b, z=z, out=args.out,
            rdm_residual=rdm_max_distance(ptr_tuple(member), ptr_tuple(ref)),
            pure=bool(abs(abs(z) - 1.0) <= 1e-12))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rdmkit",
        description="Reduced-density-matrix determinedness toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("rdm", help="emit all (n-1)-qubit RDMs of a state")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_rdm)

    sp = sub.add_parser("verdict",
                        help="determined / undetermined verdict for a pure state")
    sp.add_argument("input")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=64)
    sp.set_defaults(func=cmd_verdict)

    sp = sub.add_parser("partner",
                        help="construct the distinct pure state sharing psi's RDMs")
    sp.add_argument("psi")
    sp.add_argument("omega")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_partner)

    sp = sub.add_parser("sweep", help="statistical harness over random states")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=8)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("proofcheck",
                        help="verify orthonormality relations and the main constraint")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--z", default="0")
    sp.set_defaults(func=cmd_proofcheck)

    sp = sub.add_parser("family", help="emit a GHZ family member to a file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--z", default="0")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_family)
    return p


# main's one parser per process: parse_args returns a fresh Namespace and
# leaves the parser as it was, so every call can share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args._argv = argv
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except construct.TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
