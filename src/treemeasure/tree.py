"""Geometry of the order-k regular tree with a fixed breadth-first indexing.

The tree is rooted at index 0.  The root has ``order + 1`` children and every
other vertex has ``order`` children, so every vertex has exactly ``order + 1``
neighbours.  Indices are assigned breadth-first: all vertices at distance n
from the root come before all vertices at distance n + 1, and the children of
vertex i occupy a consecutive index block that precedes the block of vertex
i + 1 on the same level.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import DepthLimitError, render_value

DEFAULT_MAX_DEPTH = 16


@dataclass(frozen=True)
class TreeGeometry:
    order: int
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"tree order must be >= 1, got {render_value(self.order)}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {render_value(self.max_depth)}")
        # _bounds[n] is ball_size(n), so sphere n holds the indices from
        # _bounds[n-1] up to _bounds[n] - 1.  Filled only as deep as the
        # vertices asked about, since max_depth itself may be very large.
        object.__setattr__(self, "_bounds", [1])

    def _boundary(self, n: int) -> int:
        """ball_size(n) without the depth guard, cached."""
        if self.order == 1:
            return 2 * n + 1
        bounds = self._bounds
        if n >= len(bounds):
            k = self.order
            bounds = list(bounds)
            sphere = k + 1 if len(bounds) == 1 else (bounds[-1] - bounds[-2]) * k
            while n >= len(bounds):
                bounds.append(bounds[-1] + sphere)
                sphere *= k
            object.__setattr__(self, "_bounds", bounds)
        return bounds[n]

    # -- sphere and ball combinatorics ------------------------------------

    def sphere_size(self, n: int) -> int:
        """Number of vertices at distance exactly n from the root."""
        self.check_depth(n)
        if n == 0:
            return 1
        return (self.order + 1) * self.order ** (n - 1)

    def ball_size(self, n: int) -> int:
        """Number of vertices at distance at most n from the root."""
        self.check_depth(n)
        return self._boundary(n)

    def ball_vertices(self, n: int) -> range:
        return range(self.ball_size(n))

    def sphere_vertices(self, n: int) -> range:
        self.check_depth(n)
        if n == 0:
            return range(0, 1)
        return range(self.ball_size(n - 1), self.ball_size(n))

    # -- vertex arithmetic -------------------------------------------------

    def level(self, v: int) -> int:
        """Distance from the root, derived from the index alone.

        O(1) on a path (order 1), else a binary search over the cached sphere
        boundaries: O(log level(v)).
        """
        if self.order == 1:
            self.check_vertex(v)
            return (v + 1) // 2
        if not 0 <= v < self._bounds[-1]:  # a v the cache covers is in range
            self.check_vertex(v)
        return bisect_right(self._bounds, v)

    def level_and_position(self, v: int) -> tuple[int, int]:
        """(level, position within that level), the inverse of index_of."""
        n = self.level(v)
        if n == 0:
            return 0, 0
        # level(v) has grown the boundary cache past v
        return n, v - (2 * n - 1 if self.order == 1 else self._bounds[n - 1])

    def index_of(self, level: int, position: int) -> int:
        self.check_depth(level)
        if not 0 <= position < self.sphere_size(level):
            raise ValueError(f"position {render_value(position)} out of range at level {level}")
        return (0 if level == 0 else self._boundary(level - 1)) + position

    # Breadth-first indexing puts the children of a vertex v >= 1 at
    # k*v + 2 .. k*v + k + 1 and those of the root at 1 .. k + 1, so parent
    # and children need no level lookup.

    def parent(self, v: int) -> int | None:
        self.check_vertex(v)
        if v == 0:
            return None
        return 0 if v <= self.order + 1 else (v - 2) // self.order

    def children(self, v: int) -> range:
        self.check_vertex(v)
        k = self.order
        first = k * v + 2 if v else 1
        if self._beyond(first):
            raise DepthLimitError(f"children of vertex {render_value(v)} lie at depth "
                                  f"{self.level(v) + 1} > max_depth {self.max_depth}")
        return range(first, first + (k if v else k + 1))

    def path_to_root(self, v: int) -> list[int]:
        """Vertices from v up to and including the root."""
        path = [v]
        while path[-1] != 0:
            path.append(self.parent(path[-1]))
        return path

    def ancestor_at_level(self, v: int, lvl: int) -> int:
        """The vertex on the path from v to the root at distance lvl from the
        root, in closed form: each level up divides the position by order."""
        cur_lvl, pos = self.level_and_position(v)
        if not 0 <= lvl <= cur_lvl:
            raise ValueError(f"vertex {render_value(v)} sits at level {render_value(cur_lvl)}, "
                             f"no ancestor at level {render_value(lvl)}")
        if lvl == cur_lvl:
            return v
        if lvl == 0:
            return 0
        return self._boundary(lvl - 1) + pos // self.order ** (cur_lvl - lvl)

    def meet(self, u: int, v: int) -> int:
        """The deepest common ancestor of u and v (either one, when it is an
        ancestor of the other).  The deeper position is cut to the shallower
        level, and both are divided by the order until they agree: the level
        where they do is the meet's, read off u by one ancestor_at_level."""
        lu, pu = self.level_and_position(u)
        lv, pv = self.level_and_position(v)
        k = self.order
        lvl = min(lu, lv)
        pu //= k ** (lu - lvl)
        pv //= k ** (lv - lvl)
        if k == 1 and pu != pv:
            return 0  # the two halves of a path meet only at the root
        while lvl and pu != pv:
            pu //= k
            pv //= k
            lvl -= 1
        return self.ancestor_at_level(u, lvl)

    def distance(self, u: int, v: int) -> int:
        """Graph distance, via the deepest common ancestor."""
        return self.level(u) + self.level(v) - 2 * self.level(self.meet(u, v))

    def parents_list(self, n: int) -> list[int | None]:
        """parents_list(n)[v] is the parent of v, for every v in the depth-n ball."""
        self.check_depth(n)
        out: list[int | None] = [None] * self.ball_size(n)
        if n > 0:
            for v in range(self.ball_size(n - 1)):
                for c in self.children(v):
                    out[c] = v
        return out

    def edges_within(self, n: int):
        """Yield (parent, child) for every edge of the depth-n ball."""
        parents = self.parents_list(n)
        for child in range(1, self.ball_size(n)):
            yield parents[child], child

    # -- guards ------------------------------------------------------------

    def check_depth(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"depth must be non-negative, got {render_value(n)}")
        if n > self.max_depth:
            raise DepthLimitError(f"depth {render_value(n)} exceeds max_depth "
                                  f"{render_value(self.max_depth)}")

    def check_vertex(self, v: int) -> None:
        if v < 0:
            raise ValueError(f"vertex index must be non-negative, got {render_value(v)}")
        if self._beyond(v):
            raise DepthLimitError(
                f"vertex {render_value(v)} lies beyond depth max_depth {self.max_depth}"
            )

    def _beyond(self, v: int) -> bool:
        """Whether index v >= 0 lies past the depth-max_depth ball."""
        if self.order == 1:
            return v > 2 * self.max_depth
        # grow the cache, doubling its depth, until it covers v or max_depth
        while self._bounds[-1] <= v and len(self._bounds) <= self.max_depth:
            self._boundary(min(self.max_depth, 2 * len(self._bounds)))
        return self._bounds[-1] <= v
