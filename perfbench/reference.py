"""Reference answers computed without the sweepcover package.

The benchmark checks every command against these, so they share no code
with the program under test:

* ``star_counts`` solves the power-series equation of the infinite
  (delta, gamma) star tree, where ``p_count`` runs a composition recurrence;
* ``cover_polynomial`` and ``enumerate_covers`` work from the
  maximal-antichain characterisation of a sweep-cover, where the program
  searches child-set partitions top-down;
* ``enumerate_text`` reproduces the byte format of ``sweepcover enumerate``.

A tree here is ``(root, children)`` with ``children`` a dict from a label to
the list of its child labels.
"""

from __future__ import annotations

import json
from math import comb

# Printed cells of the paper's gamma = 0 table, by (delta, n) for n = 1, 2, ...
PAPER_EXACT = {
    2: [1, 1, 2, 5, 14, 42, 132, 429],
    3: [1, 3, 10, 39, 174, 846, 4332, 22959],
    4: [1, 7, 34, 221, 1614, 12394, 99556, 827045],
    5: [1, 15, 100, 1035, 11376, 132930, 1630860, 20606355],
    6: [1, 31, 276, 4511, 70986, 1232752, 22295588],
    7: [1, 63, 742, 19215, 418698, 10810254],
    8: [1, 127, 1982, 81565, 2409926, 93612646],
    9: [1, 255, 5320, 347115, 13769616],
}
# Cells the paper prints in scientific notation, to three significant figures.
PAPER_SCIENTIFIC = {
    (6, 8): 4.16e8,
    (7, 7): 2.82e8,
    (7, 8): 7.65e9,
    (8, 7): 3.45e9,
    (8, 8): 1.37e11,
    (9, 6): 8.16e8,
    (9, 7): 4.18e10,
    (9, 8): 2.45e12,
}


def nonsingleton_counts(m_max: int) -> list[list[int]]:
    """``R[m][r]``: partitions of m elements into r blocks, each of size >= 2.

    Associated Stirling recurrence R(m, r) = r*R(m-1, r) + (m-1)*R(m-2, r-1).
    """
    R = [[0] * (m_max + 1) for _ in range(m_max + 1)]
    R[0][0] = 1
    for m in range(2, m_max + 1):
        for r in range(1, m // 2 + 1):
            R[m][r] = r * R[m - 1][r] + (m - 1) * R[m - 2][r - 1]
    return R


def star_counts(delta: int, gamma: int, n_max: int) -> list[int]:
    """``[p(1), ..., p(n_max)]`` for the infinite (delta, gamma) star tree.

    Solves P = gamma*x + sum_l C(delta, l) * Q_{delta-l}(x) * P(x)^l with
    Q_m(x) = sum_r R(m, r) x^r.  Coefficient n of the right side only needs
    coefficients of P below n, so the truncated powers P^l grow one
    coefficient at a time.
    """
    R = nonsingleton_counts(delta)
    # powers[l][k] = coefficient of x^k in P(x)^l
    powers = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(delta)]
    for n in range(1, n_max + 1):
        for l in range(2, delta + 1):
            prev = powers[l - 1]
            powers[l][n] = sum(powers[1][k] * prev[n - k] for k in range(1, n))
        value = gamma if n == 1 else 0
        for l in range(delta + 1):
            q = R[delta - l]
            inner = sum(q[r] * powers[l][n - r] for r in range(min(n, delta - l) + 1))
            value += comb(delta, l) * inner
        powers[1][n] = value
    return powers[1][1:]


def catalan_row(n_max: int) -> list[int]:
    """Catalan numbers C(n-1) for n = 1..n_max, the delta=2, gamma=0 row."""
    return [comb(2 * (n - 1), n - 1) // n for n in range(1, n_max + 1)]


# -- sweep-covers of a finite tree --------------------------------------


def _postorder(root: str, children: dict[str, list[str]]) -> list[str]:
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children.get(v, ()))
    order.reverse()
    return order


def _poly_mul(a: list[int], b: list[int], n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n_max + 1 - i):
                out[i + j] += x * b[j]
    return out


def _stirling_rows(k_max: int) -> list[list[int]]:
    S = [[0] * (k_max + 1) for _ in range(k_max + 1)]
    S[0][0] = 1
    for m in range(1, k_max + 1):
        for j in range(1, m + 1):
            S[m][j] = j * S[m - 1][j] + S[m - 1][j - 1]
    return S


def cover_polynomial(root: str, children: dict[str, list[str]], n_max: int) -> list[int]:
    """Number of sweep-covers of each size 0..n_max of the tree.

    A cover is a maximal antichain split into blocks of siblings.  Below a
    node v that is not itself covered, each child c is either covered (joins
    the set S of covered children, partitioned into blocks in S2(|S|, j)
    ways) or has a cover of its own subtree without c.
    """
    S2 = _stirling_rows(max((len(k) for k in children.values()), default=0))
    below: dict[str, list[int]] = {}
    for v in _postorder(root, children):
        kids = children.get(v, ())
        if not kids:
            below[v] = [0] * (n_max + 1)
            continue
        by_covered = [[1] + [0] * n_max]  # by_covered[m]: |S| = m so far
        for c in kids:
            nxt = [[0] * (n_max + 1) for _ in range(len(by_covered) + 1)]
            for m, poly in enumerate(by_covered):
                nxt[m + 1] = [a + b for a, b in zip(nxt[m + 1], poly)]
                nxt[m] = [a + b for a, b in zip(nxt[m], _poly_mul(poly, below[c], n_max))]
            by_covered = nxt
        total = [0] * (n_max + 1)
        for m, poly in enumerate(by_covered):
            blocks = [S2[m][j] if j <= m else 0 for j in range(n_max + 1)]
            for k, x in enumerate(_poly_mul(blocks, poly, n_max)):
                total[k] += x
        below[v] = total
    full = list(below[root])
    if n_max >= 1:
        full[1] += 1
    return full


def _set_partitions(items: list[str]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def enumerate_covers(root: str, children: dict[str, list[str]], n: int) -> list[tuple]:
    """All sweep-covers of size n, each as a sorted tuple of sorted label tuples."""
    below: dict[str, dict[int, list[list[tuple]]]] = {}
    for v in _postorder(root, children):
        kids = children.get(v, ())
        # states: (covered children, size so far) -> list of block lists
        states: dict[tuple[tuple[str, ...], int], list[list[tuple]]] = {((), 0): [[]]}
        for c in kids:
            nxt: dict = {}
            for (covered, size), partials in states.items():
                nxt.setdefault((covered + (c,), size), []).extend(partials)
                for k, sub in below[c].items():
                    if size + k > n:
                        continue
                    bucket = nxt.setdefault((covered, size + k), [])
                    bucket.extend(p + s for p in partials for s in sub)
            states = nxt
        result: dict[int, list[list[tuple]]] = {}
        if kids:
            for (covered, size), partials in states.items():
                for part in _set_partitions(list(covered)):
                    total = size + len(part)
                    if total > n or total == 0:
                        continue
                    blocks = [tuple(b) for b in part]
                    result.setdefault(total, []).extend(p + blocks for p in partials)
        below[v] = result
    covers = list(below[root].get(n, []))
    if n == 1:
        covers.append([(root,)])
    return sorted(tuple(sorted(tuple(sorted(b)) for b in c)) for c in covers)


def enumerate_text(covers: list[tuple]) -> str:
    """Text output of ``sweepcover enumerate`` for canonically sorted covers."""
    return "".join(json.dumps([list(b) for b in c]) + "\n" for c in covers)
