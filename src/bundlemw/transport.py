"""Exact discrete transportation problem and the mixture-Wasserstein distance.

The solver is a transportation simplex: least-cost start, spanning tree
duals, and Dantzig's rule, which enters the most negative reduced cost.  One
basis tree is kept for the whole solve and swaps one edge per pivot; only the
subtree that moved is walked again, for its duals and parent pointers.  A
tiny perturbation of the marginals keeps every basis nondegenerate, so each
pivot strictly lowers the cost and the simplex cannot cycle.
Exactness (up to arithmetic) matters downstream: change-point statistics
compare many distances and entropic approximations would blur them.

The mixture distance squares to the optimal value of the transportation
problem whose cost matrix holds all pairwise squared Gaussian distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._jsonfile import write_json
from .errors import InfeasibleWeights, NoConvergence
from .gauss import GaussianMixture, pairwise_w2sq

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
    with np.errstate(over="ignore", invalid="ignore"):  # a nan or an infinity fails the sum
        if not abs(float(w.sum()) - 1.0) <= 1e-8 or w.min() < -1e-10:
            raise InfeasibleWeights(f"{name} is not a probability vector")
    w = np.clip(w, 0.0, None) if w.min() <= 0.0 else w  # clip also turns -0.0 into 0.0
    return w / w.sum()


def _least_cost_start(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution; returns the flow of each basis cell.

    Allocates to the cheapest cell whose row and column are both open, then
    closes one of them but never the last open row, so the cells span a tree.
    """
    K0, K1 = a.size, b.size
    flow = {}
    a_rem = a.copy()
    b_rem = b.copy()
    rows, cols = set(range(K0)), set(range(K1))
    for flat in np.argsort(C, axis=None, kind="stable"):
        i, j = divmod(int(flat), K1)
        if i not in rows or j not in cols:
            continue
        move = min(a_rem[i], b_rem[j])
        flow[i, j] = float(move)
        a_rem[i] -= move
        b_rem[j] -= move
        if len(rows) > 1 and (len(cols) == 1 or a_rem[i] <= b_rem[j]):
            rows.remove(i)
        else:
            cols.remove(j)
        if len(flow) == K0 + K1 - 1:
            break
    return flow


def _cell(node: int, other: int, K0: int):
    """Basis cell of the tree edge between a node and its neighbour."""
    return (node, other - K0) if node < K0 else (other, node - K0)


def _tree_walk(costs, adj, K0: int, pot, parent, depth, node: int) -> None:
    """Set the potentials, parents and depths of the nodes below ``node``,
    whose own are set, in the basis tree rooted at row 0 (rows 0..K0-1, then
    columns).  Each potential is its edge's cost minus its parent's, a signed
    sum along the path from the root whatever the visit order, so re-walking
    a moved subtree gives the bits of a walk from the root."""
    stack = [node]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if nxt != parent[node]:
                i, j = _cell(node, nxt, K0)
                pot[nxt] = costs[i][j] - pot[node]
                parent[nxt], depth[nxt] = node, depth[node] + 1
                stack.append(nxt)


def _tree_path(parent, depth, start: int, goal: int, K0: int):
    """Cells along the unique tree path from node start to node goal."""
    up, down = [], []
    while start != goal:
        if depth[start] >= depth[goal]:
            up.append(_cell(start, parent[start], K0))
            start = parent[start]
        else:
            down.append(_cell(goal, parent[goal], K0))
            goal = parent[goal]
    return up + down[::-1]


def _tree_solve(adj, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basic solution over the spanning tree `adj` for the given marginals.

    Peels leaves of the tree, which it empties, in node order, so every entry
    is a signed sum of marginal weights with no other roundoff; degenerate
    cells whose mass cancels to a tiny negative are clamped to zero while the
    signed remainder keeps propagating, which preserves the row and column
    sums.
    """
    K0 = a.size
    x = np.zeros((K0, b.size))
    rem = np.concatenate([a, b])
    leaves = [node for node, nbrs in enumerate(adj) if len(nbrs) == 1]
    while leaves:
        node = leaves.pop()
        if not adj[node]:
            continue
        (other,) = adj[node]
        x[_cell(node, other, K0)] = max(rem[node], 0.0)
        rem[other] -= rem[node]
        rem[node] = 0.0
        adj[node].clear()
        adj[other].discard(node)
        if len(adj[other]) == 1:
            leaves.append(other)
    return x


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
    lo = C.min(initial=np.inf)  # nan and -inf fail the first test, +inf the second
    if not (lo >= -1e-12 and C.max(initial=0.0) < np.inf):
        raise ValueError("cost entries must be finite and nonnegative")
    C = np.clip(C, 0.0, None) if lo <= 0.0 else C  # clip also turns -0.0 into 0.0
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

    # one spanning tree for the whole solve: neighbour sets over the row
    # nodes 0..K0-1 and the column nodes K0.., and a mask of its cells
    flow = _least_cost_start(C, a, b)
    adj = [set() for _ in range(K0 + K1)]
    basic = np.zeros((K0, K1), dtype=bool)
    for i, j in flow:
        adj[i].add(K0 + j)
        adj[K0 + j].add(i)
        basic[i, j] = True
    costs = C.tolist()
    pot, parent, depth = [0.0] * (K0 + K1), [-1] * (K0 + K1), [0] * (K0 + K1)
    _tree_walk(costs, adj, K0, pot, parent, depth, 0)
    max_iter = 200 * (K0 + K1) ** 2 + 1000
    for _ in range(max_iter):
        u, v = np.array(pot[:K0]), np.array(pot[K0:])
        reduced = C - u[:, None] - v[None, :]
        reduced[basic] = np.inf
        flat = int(np.argmin(reduced))
        if not reduced.flat[flat] < -1e-12:
            break
        ei, ej = entering = divmod(flat, K1)
        path = _tree_path(parent, depth, ei, K0 + ej, K0)
        minus = path[0::2]
        theta = min(flow[c] for c in minus)
        li, lj = leaving = min(c for c in minus if flow[c] <= theta)
        for c in path[1::2]:
            flow[c] += theta
        for c in minus:
            flow[c] -= theta
        flow[entering] = flow.pop(leaving) + theta
        adj[li].discard(K0 + lj)
        adj[K0 + lj].discard(li)
        adj[ei].add(K0 + ej)
        adj[K0 + ej].add(ei)
        basic[leaving], basic[entering] = False, True
        # the leaving edge cut off the subtree of its deeper end; the cycle from
        # row ei meets li first, so ei is in that subtree iff li is deeper
        sub, top = (ei, K0 + ej) if depth[li] > depth[K0 + lj] else (K0 + ej, ei)
        pot[sub], parent[sub], depth[sub] = costs[ei][ej] - pot[top], top, depth[top] + 1
        _tree_walk(costs, adj, K0, pot, parent, depth, sub)
    else:
        raise NoConvergence("transportation simplex exceeded its iteration budget")

    # the optimal basis does not depend on the perturbation, so re-solve the
    # tree against the original marginals for an exactly feasible plan
    x = _tree_solve(adj, a0, b0)
    x[x <= _CLEANUP] = 0.0
    return TransportPlan(x, float(np.sum(x * C)), (u, v))


def mw2(mix0: GaussianMixture, mix1: GaussianMixture) -> MW2Result:
    """Mixture-Wasserstein distance between two Gaussian mixtures.

    Builds the matrix of pairwise squared component distances, solves the
    transportation problem between the weight vectors, and reports the
    square root of the optimum together with the optimal plan.

    Raises
    ------
    FrameMismatch
        If the mixtures are expressed in different moving frames.
    """
    pairwise = pairwise_w2sq(mix0, mix1)
    plan = solve_transportation(pairwise, mix0.weights, mix1.weights)
    dsq = max(plan.cost, 0.0)
    return MW2Result(float(np.sqrt(dsq)), dsq, plan, pairwise)


def _mw2_row(mixtures, i: int) -> list:
    """Distances from mixtures[i] to every later mixture."""
    return [mw2(mixtures[i], m).distance for m in mixtures[i + 1 :]]


def pairwise_mw2(mixtures) -> np.ndarray:
    """Symmetric N x N matrix of mixture-Wasserstein distances.

    Entry (i, j) equals ``mw2(mixtures[i], mixtures[j]).distance`` bit for
    bit for i < j, and the diagonal is exactly zero.  Frames are checked
    pair by pair within tolerance, as :func:`mw2` does.

    Raises
    ------
    FrameMismatch
        If two mixtures are expressed in different moving frames.
    """
    mixtures = list(mixtures)
    n = len(mixtures)
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i + 1 :] = D[i + 1 :, i] = _mw2_row(mixtures, i)
    return D


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
