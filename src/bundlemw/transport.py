"""Exact discrete transportation problem and the mixture-Wasserstein distance.

The solver is a transportation simplex: northwest-corner start, spanning
tree duals, Bland's smallest-index pivoting rule for anti-cycling, and a
tiny perturbation of the marginals to keep basic solutions nondegenerate.
Exactness (up to arithmetic) matters downstream: change-point statistics
compare many distances and entropic approximations would blur them.

The mixture distance squares to the optimal value of the transportation
problem whose cost matrix holds all pairwise squared Gaussian distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._jsonfile import read_json, write_json
from .errors import InfeasibleWeights, NoConvergence
from .gauss import GaussianMixture, _psd_roots, pairwise_w2sq
from .geometry import frames_equal

# perturbation added to marginals to break degenerate ties; plan entries at
# or below the cleanup threshold are treated as exact zeros
_EPS_PERTURB = 1e-13
_CLEANUP = 1e-11


@dataclass(frozen=True)
class TransportPlan:
    """A feasible coupling matrix and its transport cost.

    ``potentials`` holds the optimal dual variables (u, v) when the plan
    came out of the simplex solver; they certify optimality through the
    reduced costs c_ij - u_i - v_j >= 0.
    """

    matrix: np.ndarray
    cost: float
    potentials: Optional[tuple] = None


@dataclass(frozen=True)
class MW2Result:
    """Mixture-Wasserstein distance with its optimal component coupling."""

    distance: float
    distance_sq: float
    plan: TransportPlan
    pairwise: np.ndarray


def _validate_simplex(w, n: int, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise InfeasibleWeights(f"{name} has shape {w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w)) or np.any(w < -1e-10) or abs(float(w.sum()) - 1.0) > 1e-8:
        raise InfeasibleWeights(f"{name} is not a probability vector")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution; returns the plan and basis cells."""
    K0, K1 = a.size, b.size
    x = np.zeros((K0, K1))
    basis = []
    a_rem = a.copy()
    b_rem = b.copy()
    i = j = 0
    while len(basis) < K0 + K1 - 1:
        basis.append((i, j))
        move = min(a_rem[i], b_rem[j])
        x[i, j] = move
        a_rem[i] -= move
        b_rem[j] -= move
        if i == K0 - 1:
            j += 1
        elif j == K1 - 1:
            i += 1
        elif a_rem[i] <= b_rem[j]:
            i += 1
        else:
            j += 1
    return x, basis


def _tree_potentials(cost: np.ndarray, basis, K0: int, K1: int):
    """Dual variables from the spanning tree of basis cells, u[0] = 0."""
    adj: dict[int, list[tuple[int, int, int]]] = {}
    for i, j in basis:
        adj.setdefault(i, []).append((K0 + j, i, j))
        adj.setdefault(K0 + j, []).append((i, i, j))
    u = np.full(K0, np.nan)
    v = np.full(K1, np.nan)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nxt, i, j in adj.get(node, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt >= K0:
                v[nxt - K0] = cost[i, j] - u[i]
            else:
                u[nxt] = cost[i, j] - v[j]
            stack.append(nxt)
    return u, v


def _tree_solve(basis, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basic solution over the spanning tree `basis` for the given marginals.

    Peels leaves of the tree, so every entry is a signed sum of marginal
    weights with no other roundoff; degenerate cells whose mass cancels to
    a tiny negative are clamped to zero while the signed remainder keeps
    propagating, which preserves the row and column sums.
    """
    K0, K1 = a.size, b.size
    x = np.zeros((K0, K1))
    rem = np.concatenate([a, b])
    adj: dict[int, set[int]] = {node: set() for node in range(K0 + K1)}
    cell_of = {}
    for i, j in basis:
        adj[i].add(K0 + j)
        adj[K0 + j].add(i)
        cell_of[(i, K0 + j)] = (i, j)
    leaves = [node for node, nbrs in adj.items() if len(nbrs) == 1]
    while leaves:
        node = leaves.pop()
        if not adj[node]:
            continue
        (other,) = adj[node]
        i, j = cell_of[(node, other) if node < K0 else (other, node)]
        x[i, j] = max(rem[node], 0.0)
        rem[other] -= rem[node]
        rem[node] = 0.0
        adj[node].clear()
        adj[other].discard(node)
        if len(adj[other]) == 1:
            leaves.append(other)
    return x


def _tree_path(basis, start: int, goal: int, K0: int):
    """Cells along the unique tree path between two nodes of the basis."""
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for i, j in basis:
        adj.setdefault(i, []).append((K0 + j, (i, j)))
        adj.setdefault(K0 + j, []).append((i, (i, j)))
    parent: dict[int, tuple[int, tuple[int, int]]] = {start: (-1, (-1, -1))}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, cell)
                stack.append(nxt)
    path = []
    node = goal
    while node != start:
        prev, cell = parent[node]
        path.append(cell)
        node = prev
    return path[::-1]


def solve_transportation(cost, w0, w1) -> TransportPlan:
    """Solve min <cost, x> over nonnegative x with row sums w0, column sums w1.

    Returns an exact optimal basic solution with at most K0 + K1 - 1
    nonzero entries.  Cost entries must be finite and nonnegative; the
    weight vectors must be probability vectors.
    """
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2:
        raise ValueError("cost must be a matrix")
    K0, K1 = C.shape
    if not np.all(np.isfinite(C)) or np.any(C < -1e-12):
        raise ValueError("cost entries must be finite and nonnegative")
    C = np.clip(C, 0.0, None)
    a = _validate_simplex(w0, K0, "w0")
    b = _validate_simplex(w1, K1, "w1")

    if K0 == 1:
        plan = b[None, :].copy()
        return TransportPlan(plan, float(plan[0] @ C[0]), (np.zeros(1), C[0].copy()))
    if K1 == 1:
        plan = a[:, None].copy()
        return TransportPlan(plan, float(a @ C[:, 0]), (C[:, 0].copy(), np.zeros(1)))

    # perturb so every basic solution is nondegenerate: supplies get +eps,
    # the last demand absorbs the added mass
    a0, b0 = a, b
    a = a + _EPS_PERTURB
    b = b.copy()
    b[-1] += K0 * _EPS_PERTURB

    x, basis = _northwest_corner(a, b)
    basis_set = set(basis)
    max_iter = 200 * (K0 + K1) ** 2 + 1000
    for _ in range(max_iter):
        u, v = _tree_potentials(C, basis, K0, K1)
        reduced = C - u[:, None] - v[None, :]
        entering = None
        for i in range(K0):
            row = reduced[i]
            for j in range(K1):
                if row[j] < -1e-12 and (i, j) not in basis_set:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            break
        path = _tree_path(basis, entering[0], K0 + entering[1], K0)
        cycle = [entering] + path
        minus = cycle[1::2]
        theta = min(x[c] for c in minus)
        leaving = min(c for c in minus if x[c] <= theta)
        for c in cycle[0::2]:
            x[c] += theta
        for c in minus:
            x[c] -= theta
        x[leaving] = 0.0
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis = [entering if c == leaving else c for c in basis]
    else:
        raise NoConvergence("transportation simplex exceeded its iteration budget")

    # the optimal basis does not depend on the perturbation, so re-solve the
    # tree against the original marginals for an exactly feasible plan
    x = _tree_solve(basis, a0, b0)
    x[x <= _CLEANUP] = 0.0
    return TransportPlan(x, float(np.sum(x * C)), (u, v))


def mw2(
    mix0: GaussianMixture, mix1: GaussianMixture, roots0: Optional[np.ndarray] = None
) -> MW2Result:
    """Mixture-Wasserstein distance between two Gaussian mixtures.

    Builds the matrix of pairwise squared component distances, solves the
    transportation problem between the weight vectors, and reports the
    square root of the optimum together with the optimal plan.  ``roots0``
    is passed on to :func:`~bundlemw.gauss.pairwise_w2sq`.

    Raises
    ------
    FrameMismatch
        If the mixtures are expressed in different moving frames.
    """
    pairwise = pairwise_w2sq(mix0, mix1, roots0)
    plan = solve_transportation(pairwise, mix0.weights, mix1.weights)
    dsq = max(plan.cost, 0.0)
    return MW2Result(float(np.sqrt(dsq)), dsq, plan, pairwise)


def _mw2_row(mixtures, i: int) -> list:
    """Distances from mixtures[i] to every later mixture, factoring it once."""
    roots = _psd_roots(mixtures[i])
    return [mw2(mixtures[i], mix, roots).distance for mix in mixtures[i + 1 :]]


def pairwise_mw2(mixtures) -> np.ndarray:
    """Symmetric N x N matrix of mixture-Wasserstein distances.

    Entry (i, j) equals ``mw2(mixtures[i], mixtures[j]).distance`` bit for
    bit for i < j, and the diagonal is exactly zero.  Each row mixture's
    covariance square roots are computed once, not once per pair.  A frame
    that equals the first mixture's exactly is checked only against it;
    any other frame is checked pair by pair within tolerance, as
    :func:`mw2` does, so the result never depends on which mixture is first.

    Raises
    ------
    FrameMismatch
        If two mixtures are expressed in different moving frames.
    """
    mixtures = list(mixtures)
    # sharing one frame object turns the per-pair frame check into an identity test
    for k, mix in enumerate(mixtures[1:], 1):
        if frames_equal(mixtures[0].frame, mix.frame, tol=0.0):
            mixtures[k] = GaussianMixture(mix.weights, mix.components, mixtures[0].frame)
    n = len(mixtures)
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i + 1 :] = D[i + 1 :, i] = _mw2_row(mixtures, i)
    return D


def mw2_distance(mix0: GaussianMixture, mix1: GaussianMixture) -> float:
    """Just the distance, for callers that do not need the plan."""
    return mw2(mix0, mix1).distance


# ---------------------------------------------------------------------------
# Serialization: plan.json records the full solve for inspection.

def result_to_dict(res: MW2Result) -> dict:
    return {
        "cost": res.distance_sq,
        "distance": res.distance,
        "plan": res.plan.matrix.tolist(),
        "pairwise": res.pairwise.tolist(),
    }


def save_result(path, res: MW2Result) -> None:
    write_json(path, result_to_dict(res))


def load_result(path) -> dict:
    return read_json(path)
