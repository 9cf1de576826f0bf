"""Small-tree corpora for oracle runs and randomized testing."""

from __future__ import annotations

from collections.abc import Iterator

from .tree import Tree


def all_rooted_trees(max_nodes: int) -> Iterator[Tree]:
    """One representative tree per rooted isomorphism class, sizes 1..max_nodes.

    Each size walks its canonical level sequences (node depths in pre-order)
    from the path down to the star by the successor rule of Beyer and
    Hedetniemi ("Constant time generation of rooted trees", SIAM J. Comput.
    9, 1980).  Node i is labeled n{i}, so labels run n0, n1, ... in pre-order.
    """
    for n in range(1, max_nodes + 1):
        level = list(range(n))
        while True:
            children: dict[str, list[str]] = {}
            latest: list[str] = []  # latest[d]: the last node so far at depth d
            for i, depth in enumerate(level):
                del latest[depth:]
                if latest:
                    children.setdefault(latest[-1], []).append(f"n{i}")
                latest.append(f"n{i}")
            yield Tree("n0", children)
            # p: the last node deeper than 1; q: the last node before p one level up.
            p = next((i for i in range(n - 1, 0, -1) if level[i] > 1), 0)
            if not p:
                break
            q = next(i for i in range(p - 1, -1, -1) if level[i] == level[p] - 1)
            for i in range(p, n):
                level[i] = level[i - (p - q)]


def random_labeled_tree(rng: "random.Random", n_nodes: int) -> Tree:
    """Uniform random attachment tree with shuffled labels."""
    labels = [f"v{i}" for i in range(n_nodes)]
    rng.shuffle(labels)
    children: dict[str, list[str]] = {}
    for i in range(1, n_nodes):
        parent = labels[rng.randrange(i)]
        children.setdefault(parent, []).append(labels[i])
    return Tree(labels[0], children)
