"""Independent brute-force answers for small lattices.

Works from the raw presentation (element ids and cover pairs) without
touching finlat, so the CLI reports can be checked against something that
does not share the code under test.  Cubic or worse; meant for lattices of
a few dozen elements.
"""

from __future__ import annotations

from itertools import combinations


class Presentation:
    """Order, joins and meets of a finite lattice given by its covers."""

    def __init__(self, elements, covers):
        self.n = n = len(elements)
        index = {e: i for i, e in enumerate(elements)}
        self.lower = [[] for _ in range(n)]
        upper = [[] for _ in range(n)]
        for lo, hi in covers:
            upper[index[lo]].append(index[hi])
            self.lower[index[hi]].append(index[lo])
        self.above = []
        for i in range(n):
            seen, todo = {i}, [i]
            while todo:
                for j in upper[todo.pop()]:
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            self.above.append(seen)
        self.below = [{j for j in range(n) if i in self.above[j]} for i in range(n)]
        self.covers = {(index[lo], index[hi]) for lo, hi in covers}
        self.join = [[self._least(self.above[a] & self.above[b]) for b in range(n)] for a in range(n)]
        self.meet = [[self._greatest(self.below[a] & self.below[b]) for b in range(n)] for a in range(n)]
        self.bottom = self._least(set(range(n)))
        self.top = self._greatest(set(range(n)))

    def _least(self, s: set[int]) -> int:
        """The member of ``s`` below all of ``s``; unpacking fails if none is."""
        (x,) = [c for c in s if s <= self.above[c]]
        return x

    def _greatest(self, s: set[int]) -> int:
        (x,) = [c for c in s if s <= self.below[c]]
        return x

    def join_irreducibles(self) -> list[int]:
        return [x for x in range(self.n) if len(self.lower[x]) == 1]

    def width(self, subset) -> int:
        """Largest antichain inside ``subset``."""
        best = 0
        items = list(subset)
        for r in range(1, len(items) + 1):
            for group in combinations(items, r):
                if all(b not in self.above[a] and a not in self.above[b] for a, b in combinations(group, 2)):
                    best = r
                    break
            else:
                break
        return best

    def length(self) -> int:
        order = sorted(range(self.n), key=lambda i: len(self.below[i]))
        dist = [0] * self.n
        for lo in order:
            for hi in range(self.n):
                if (lo, hi) in self.covers:
                    dist[hi] = max(dist[hi], dist[lo] + 1)
        return dist[self.top]

    def properties(self) -> dict:
        """The six flags and sizes ``finlat analyze`` reports."""
        rng = range(self.n)
        join, meet = self.join, self.meet
        distributive = all(
            meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]] for x in rng for y in rng for z in rng
        )
        semimodular = all(
            join[a][z] == join[b][z] or (join[a][z], join[b][z]) in self.covers
            for a, b in self.covers
            for z in rng
        )
        complemented = all(
            any(join[x][y] == self.top and meet[x][y] == self.bottom for y in rng) for x in rng
        )
        ji = self.join_irreducibles()
        return {
            "distributive": distributive,
            "semimodular": semimodular,
            "boolean": distributive and complemented,
            "slim": self.width(ji) <= 2,
            "length": self.length(),
            "join_irreducible_count": len(ji),
        }
