"""Bit-packed GF(2) kernels: rank, the diagonal-mask search, and the
tournament order search and canonical form.

A matrix lives as a sequence of row bitmasks: bit j of ``rows[i]`` is entry
(i, j).  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import time
from itertools import permutations

from .errors import BudgetExceededError

# The diagonal and order searches poll the deadline at their first node and
# then every 1024 nodes.
_CHECK_MASK = 0x3FF


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("search exceeded its time budget")


def rank(rows, n: int) -> int:
    """GF(2) rank: each row is reduced into a basis keyed by leading bit."""
    basis = [0] * n
    r = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if not basis[lead]:
                basis[lead] = row
                r += 1
                break
            row ^= basis[lead]
    return r


def diagonal_sweep(rows, n: int, cap: int, stop_at: int = 0, deadline: float | None = None):
    """Least rank(A + D) below ``cap`` over the nonzero diagonal masks D.

    A depth-first search decides the diagonal bits from vertex n-1 down.  At
    each node the child whose bit equals the parity of the bits already set
    goes first, so the leaves come in reflected-Gray-code order (position p
    is mask p ^ (p >> 1)) and the mask returned is the first in that order to
    attain the minimum.  Deciding bit k fixes row k of A + D; the fixed rows
    sit in an XOR basis keyed by leading bit.  The search stops once the best
    cost is at most ``stop_at``.

    A subtree is cut once a lower bound for every leaf below reaches the best
    cost found.  With the rows K decided and the rest U not, A + D is
    [[X, B^T], [B, P]] with the rows [B P] known (P = (A + D)[K, K]) and X
    unknown only on its diagonal.  Even a free X leaves rank at least
    rank[B P] + rank[B^T; P] - rank P = 2r - rank P, r the rank of the
    decided rows (Woerdeman, "Minimal rank completions for block matrices",
    Linear Algebra Appl. 121, 1989).  The basis vectors leading on a decided
    column stay independent on those columns and the others are zero there,
    so rank P is r less the count ``low`` of basis vectors leading below the
    decided columns, and the bound is r + low, kept in O(1) per node.  The
    bound needs symmetric ``rows``; every caller passes an adjacency matrix.

    Mask 0 (Gray position 0) is skipped: the least rank over the nonzero
    masks is the boolean cost, and a caller that wants the geometric one
    compares it with rank(A) itself.  Returns ``(best, mask)``, or
    ``(cap, -1)`` when no nonzero mask costs less than ``cap``.
    """
    best = cap
    best_mask = -1
    basis = [0] * n
    nodes = 0

    def descend(k, mask, parity, r, low):
        # Bits k..n-1 of mask are decided; their rows have rank r, ``low`` of
        # the basis vectors lead below bit k, and r + low < best.
        # Returns True once the search may stop.
        nonlocal best, best_mask, nodes
        if not nodes & _CHECK_MASK:
            _check_deadline(deadline)
        nodes += 1
        if k == 0:
            if not mask:
                return False
            best, best_mask = r, mask
            return best <= stop_at
        k -= 1
        if basis[k]:
            low -= 1
        for d in (parity, parity ^ 1):
            row = rows[k] ^ (d << k)
            while row:
                lead = row.bit_length() - 1
                if not basis[lead]:
                    break
                row ^= basis[lead]
            if row:
                below = low + (lead < k)
                if r + 1 + below < best:
                    basis[lead] = row
                    done = descend(k, mask | (d << k), parity ^ d, r + 1, below)
                    basis[lead] = 0
                    if done:
                        return True
            elif r + low < best and descend(k, mask | (d << k), parity ^ d, r, low):
                return True
        return False

    descend(n, 0, 0, 0, 0)
    return best, best_mask


# ---------------------------------------------------------------------------
# Tournament search
# ---------------------------------------------------------------------------


def _is_clique(rows, support: int) -> bool:
    """Whether the graph with adjacency ``rows`` is one clique on its set
    ``support`` of non-isolated vertices (the graphs of cost 1, and the empty
    graph)."""
    rest = support
    while rest:
        bit = rest & -rest
        rest ^= bit
        if rows[bit.bit_length() - 1] != support ^ bit:
            return False
    return True


def _cost_at_most_2(rows, support: int) -> bool:
    """Whether the graph with adjacency ``rows`` is the XOR of two cliques.

    ``support`` is its set S of non-isolated vertices.  Two cliques give each
    vertex of S a code X (10), Y (01) or Z (11): N[x] = X | Z, N[y] = Y | Z
    and N(z) = X | Y, and the diagonal mask D = X | Y makes A + D the Gram
    matrix of the codes, of rank at most 2.  Conversely a nonzero D with
    rank(A + D) <= 2 factors A + D into two cliques.  The least vertex v0 of
    S fixes D up to two candidates: D = N(v0) if v0 is in Z; otherwise (say
    v0 in X) Y = S - N[v0], and Z = N[y0] - Y for the least y0 in Y, or,
    with Y empty, D = N(u) for the least u with N[u] != S (such a u is in Z),
    or D = S when S is a clique.
    """
    v0 = (support & -support).bit_length() - 1
    if _rank_at_most_2(rows, support, rows[v0]):
        return True
    y = support & ~rows[v0] & ~(1 << v0)
    if y:
        y0 = (y & -y).bit_length() - 1
        mask = support & ~(rows[y0] | (1 << y0)) | y
    else:
        mask = support
        rest = support
        while rest:
            bit = rest & -rest
            rest ^= bit
            row = rows[bit.bit_length() - 1]
            if row | bit != support:
                mask = row
                break
    return _rank_at_most_2(rows, support, mask)


def _rank_at_most_2(rows, support: int, mask: int) -> bool:
    """Whether the rows of A + D on ``support`` (D the diagonal ``mask``)
    span at most two dimensions: every row is 0, a, b or a ^ b, where a and b
    are the first two distinct nonzero rows.  Rows off the support are zero
    when ``mask`` lies inside it."""
    a = b = 0
    rest = support
    while rest:
        bit = rest & -rest
        rest ^= bit
        row = rows[bit.bit_length() - 1] ^ (mask & bit)
        if row == 0 or row == a or row == b or row == a ^ b:
            continue
        if not a:
            a = row
        elif not b:
            b = row
        else:
            return False
    return True


def inversion_search(arcs, n: int, deadline: float | None = None):
    """The least boolean cost of a disagreement graph over the target orders
    of an n-vertex tournament, n >= 1.

    Orders are visited lexicographically; for each complete order the
    disagreement graph (pairs whose arc opposes the order) gets its boolean
    cost from a diagonal search capped at the running best, and the search
    stops at the first order of cost 1.  Every order costs at most n, so the
    incumbent n + 1 cuts nothing before the first leaf, the identity order,
    which then sets the best.  The boolean cost is monotone under induced
    subgraphs and a prefix's disagreement graph is final, so a prefix is
    abandoned once its graph cannot cost less than the best:
      best 2: its edges do not form one clique on its non-isolated vertices;
      best 3: it has four or more vertices (every graph on three costs at
      most 2) and is not the XOR of two cliques (an exact bit-row test);
      best 4 or more, n >= 8: from depth n - 3 on, a diagonal search of the
      prefix graph, capped at the best, finds no cost below it.
    The search polls the deadline at its first node and then every 1024
    nodes, besides the polls of its diagonal searches.

    Returns (best, perm, mask) for the lexicographically first optimal order.
    """
    best = n + 1
    best_perm = None
    best_mask = -1
    dis = [0] * n
    perm = []
    nodes = 0

    def rec(used):
        # Returns True once the search may stop.
        nonlocal best, best_perm, best_mask, nodes
        if not nodes & _CHECK_MASK:
            _check_deadline(deadline)
        nodes += 1
        if len(perm) == n:
            cost, mask = diagonal_sweep(dis, n, best, 1, deadline)
            if mask >= 0:
                best, best_mask = cost, mask
                best_perm = tuple(perm)
            return best <= 1
        for v in range(n):
            if used >> v & 1:
                continue
            edges = arcs[v] & used
            toggle(v, edges)
            perm.append(v)
            done = can_beat_best() and rec(used | 1 << v)
            perm.pop()
            toggle(v, edges)
            if done:
                return True
        return False

    def toggle(v, edges):
        # XOR v's disagreement edges to the placed vertices in or out.
        dis[v] ^= edges
        while edges:
            low = edges & -edges
            dis[low.bit_length() - 1] ^= 1 << v
            edges ^= low

    def can_beat_best():
        p = len(perm)
        if best > 3:
            return not (n >= 8 and n - 3 <= p < n and _prefix_dim_at_least(best))
        if best == 3 and p < 4:
            return True
        support = 0  # the non-isolated vertices: the union of the rows
        for v in perm:
            support |= dis[v]
        if best == 2:
            return _is_clique(dis, support)
        return not support or _cost_at_most_2(dis, support)

    def _prefix_dim_at_least(threshold):
        p = len(perm)
        sub = []
        for a in range(p):
            row = 0
            ra = dis[perm[a]]
            for b in range(p):
                if (ra >> perm[b]) & 1:
                    row |= 1 << b
            sub.append(row)
        # Only the comparison against threshold matters, so the search may
        # stop at the first cost below it.
        return diagonal_sweep(sub, p, threshold, threshold - 1, deadline)[1] < 0

    rec(0)
    return best, best_perm, best_mask


def canon_tournament(arcs, n: int):
    """Lexicographically least arc matrix over all vertex relabelings.

    Matrices compare as row-major bit strings (entry (i, j) read with j
    ascending).  Each relabeling's key is built in that reading order: row r
    holds the out-neighbours of the vertex at position r, entry (r, j) at bit
    n-1-j, so keys compare as int tuples and only the winner is turned back
    into arc rows.
    """
    outs = [[j for j in range(n) if (arcs[v] >> j) & 1] for v in range(n)]
    weights = [1 << (n - 1 - r) for r in range(n)]
    best = None
    for order in permutations(range(n)):
        weight = dict(zip(order, weights))
        key = tuple([sum([weight[j] for j in outs[v]]) for v in order])
        if best is None or key < best:
            best = key
    return tuple(int(format(row, f"0{n}b")[::-1], 2) for row in best)
