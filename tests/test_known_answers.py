"""Verdicts on families whose answer is known in closed form.

A graph state is GHZ-type, hence undetermined by its (n-1)-RDMs, exactly
when every bipartition of its qubits has Schmidt rank 2.  The Schmidt rank
across a cut (A, B) is 2^r, with r the GF(2) rank of the adjacency block
Gamma[A, B] (the cut rank), so the expected verdict is computed here from
cut ranks alone, with no call into rdmkit.  The graphs whose every cut
has rank 1 are the star and the complete graphs, and the test checks that
too.  Dicke states D(n, w) with 0 < w < n are determined for n >= 3 and
D(2, 1) is a Bell state; logical states of the 5-qubit code are
determined.  Every state is also run under random local unitaries, which
move no verdict.
"""

import itertools

import numpy as np
import pytest

from rdmkit.compat import determinedness
from rdmkit.qstate import (PauliWord, PureState, apply_local_unitaries,
                           random_local_unitaries)


def graph_state(n, edges):
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    parity = sum((bits[:, i] * bits[:, j] for i, j in edges),
                 np.zeros(2**n, dtype=int))
    return PureState(n, (-1.0 + 0j) ** parity / np.sqrt(2**n))


def gf2_rank(rows):
    """Rank over GF(2) of a 0/1 matrix given as a list of int bit rows."""
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def cut_ranks(n, edges):
    """GF(2) rank of Gamma[A, B] for every cut with vertex 0 in A."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    out = []
    for size in range(n - 1):
        for rest in itertools.combinations(range(1, n), size):
            a = (0,) + rest
            b_mask = sum(1 << v for v in range(n) if v not in a)
            out.append(gf2_rank(adj[v] & b_mask for v in a))
    return out


def star_or_complete(n, edges):
    pairs = set(itertools.combinations(range(n), 2))
    stars = [{tuple(sorted((c, v))) for v in range(n) if v != c}
             for c in range(n)]
    return set(edges) == pairs or set(edges) in stars


def graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    if n <= 4:
        for mask in range(2 ** len(pairs)):
            yield [p for k, p in enumerate(pairs) if mask >> k & 1]
    elif n == 5:
        rng = np.random.default_rng(5200)
        for _ in range(64):
            yield [p for p in pairs if rng.integers(2)]
    else:
        yield [(0, v) for v in range(1, n)]
        yield pairs
        yield [(v, (v + 1) % n) for v in range(n)]
        yield [(v, v + 1) for v in range(n - 1)]


def check(psi, determined, seed, what):
    for state in (psi, apply_local_unitaries(
            psi, random_local_unitaries(psi.n, seed))):
        v = determinedness(state)
        assert v.determined is determined, what
        assert v.anomaly is None, (what, v.anomaly)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_graph_states_are_undetermined_iff_every_cut_has_rank_1(n):
    undetermined = 0
    for g, edges in enumerate(graphs(n)):
        rank_one = all(r == 1 for r in cut_ranks(n, edges))
        assert rank_one == star_or_complete(n, edges), edges
        undetermined += rank_one
        check(graph_state(n, edges), not rank_one, 5300 + 100 * n + g,
              edges)
    if n <= 4:  # every graph: n stars and the complete graph, one at n=2
        assert undetermined == (1 if n == 2 else n + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dicke_states(n):
    for w in range(n + 1):
        amps = np.array([bin(x).count("1") == w for x in range(2**n)],
                        dtype=complex)
        psi = PureState(n, amps / np.linalg.norm(amps))
        # w = 0 and w = n are product states
        check(psi, not (n == 2 and w == 1), 5400 + 10 * n + w, (n, w))


def test_five_qubit_code_states():
    proj = np.eye(32, dtype=complex)
    for word in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        proj = proj @ (np.eye(32) + PauliWord(word).matrix()) / 2
    rng = np.random.default_rng(5500)
    for s in range(4):
        v = proj @ (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        check(PureState(5, v / np.linalg.norm(v)), True, 5500 + s, s)
