from collections import deque

import pytest

from treemeasure import DepthLimitError, TreeGeometry


def bfs_oracle(k, n):
    """Rebuild the layered tree with an explicit queue.

    Returns (levels, parents, children) where levels[v] is the depth of
    vertex v, parents[v] is its parent index (None for the root), and
    children[v] lists child indices in order of assignment.
    """
    levels = [0]
    parents = [None]
    children = {0: []}
    queue = deque([0])
    next_index = 1
    while queue:
        v = queue.popleft()
        if levels[v] >= n:
            continue
        degree = k + 1 if v == 0 else k
        for _ in range(degree):
            c = next_index
            next_index += 1
            levels.append(levels[v] + 1)
            parents.append(v)
            children[v].append(c)
            children[c] = []
            queue.append(c)
    return levels, parents, children


def test_indexing_matches_bfs_oracle():
    for k in (1, 2, 3):
        tree = TreeGeometry(k, max_depth=6)
        levels, parents, children = bfs_oracle(k, 5)
        assert tree.ball_size(5) == len(levels)
        for v in range(len(levels)):
            assert tree.level(v) == levels[v]
            assert tree.parent(v) == parents[v]
            if levels[v] < 5:
                assert list(tree.children(v)) == children[v]
            # chain[d] is the ancestor d steps up, read off the oracle's parents
            chain = [v]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            for lvl in range(levels[v] + 1):
                assert tree.ancestor_at_level(v, lvl) == chain[levels[v] - lvl]
            with pytest.raises(ValueError):
                tree.ancestor_at_level(v, levels[v] + 1)
        assert tree.parents_list(5) == parents

        # the last vertex of the max_depth ball is accepted, the next is not;
        # a fresh geometry checks the guard before any other lookup
        fresh = TreeGeometry(k, max_depth=6)
        last = tree.ball_size(6) - 1
        with pytest.raises(DepthLimitError):
            fresh.check_vertex(last + 1)
        fresh.check_vertex(last)
        assert fresh.level(last) == 6
        with pytest.raises(DepthLimitError):
            fresh.level(last + 1)
        with pytest.raises(ValueError):
            fresh.level(-1)
        with pytest.raises(ValueError):
            fresh.ancestor_at_level(-1, 0)


def test_large_max_depth_costs_only_what_is_asked():
    # index arithmetic must not build anything proportional to max_depth
    path = TreeGeometry(1, max_depth=10**12)
    v = 2 * 10**11 + 1
    assert path.level(v) == 10**11 + 1
    assert path.parent(v) == v - 2
    assert path.ancestor_at_level(v, 1) == 1
    assert path.ancestor_at_level(v + 1, 1) == 2
    deep = TreeGeometry(2, max_depth=10**6)
    assert deep.level(21) == 3
    assert deep.ancestor_at_level(21, 1) == 3
    assert list(deep.children(21)) == [44, 45]


def test_sphere_and_ball_closed_forms():
    for k in (1, 2, 3):
        tree = TreeGeometry(k, max_depth=9)
        count = 1
        total = 1
        assert tree.sphere_size(0) == 1
        assert tree.ball_size(0) == 1
        for n in range(1, 9):
            count = (k + 1) * k ** (n - 1)
            total += count
            assert tree.sphere_size(n) == count
            assert tree.ball_size(n) == total


def test_k2_frozen_layout():
    tree = TreeGeometry(2)
    assert [tree.ball_size(n) for n in range(4)] == [1, 4, 10, 22]
    assert list(tree.children(0)) == [1, 2, 3]
    assert list(tree.children(1)) == [4, 5]
    assert list(tree.children(3)) == [8, 9]
    assert tree.parent(9) == 3
    assert tree.path_to_root(9) == [9, 3, 0]
    # 4 sits under 1, 3 is a sibling branch: up 2 edges, down 1
    assert tree.distance(4, 3) == 3
    assert tree.distance(4, 5) == 2
    assert tree.distance(0, 9) == 2


def test_sphere_vertices_partition_ball():
    tree = TreeGeometry(3, max_depth=4)
    seen = []
    for n in range(4):
        seen.extend(tree.sphere_vertices(n))
    assert seen == list(tree.ball_vertices(3))


def test_ancestor_and_level_position():
    tree = TreeGeometry(2)
    for v in range(tree.ball_size(3)):
        lvl, pos = tree.level_and_position(v)
        assert tree.index_of(lvl, pos) == v
        assert tree.ancestor_at_level(v, lvl) == v
        assert tree.ancestor_at_level(v, 0) == 0


def test_depth_guards():
    tree = TreeGeometry(2, max_depth=3)
    with pytest.raises(DepthLimitError):
        tree.ball_size(4)
    with pytest.raises(DepthLimitError):
        tree.sphere_vertices(9)
    with pytest.raises(ValueError):
        TreeGeometry(0)
    with pytest.raises(ValueError):
        tree.check_vertex(-1)


def test_edges_within_count():
    # a ball is a tree: edge count is vertex count minus one
    for k in (1, 2, 3):
        tree = TreeGeometry(k, max_depth=5)
        for n in range(5):
            edges = list(tree.edges_within(n))
            assert len(edges) == tree.ball_size(n) - 1
            for parent, child in edges:
                assert tree.parent(child) == parent


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_closed_form_parent_children_meet_against_bfs_oracle(k):
    """parent and children without a level lookup, and meet and distance,
    against the oracle's parents for every pair of the depth-4 ball."""
    tree = TreeGeometry(k, max_depth=4)
    levels, parents, children = bfs_oracle(k, 4)
    paths = []  # paths[v]: the vertices from the root down to v
    for v in range(len(levels)):
        paths.append([v] if parents[v] is None else paths[parents[v]] + [v])
    for u, path_u in enumerate(paths):
        assert tree.parent(u) == parents[u]
        if levels[u] < 4:
            assert list(tree.children(u)) == children[u]
        else:
            with pytest.raises(DepthLimitError):
                tree.children(u)
        for v in range(u, len(paths)):
            path_v = paths[v]
            common = 0
            while common < min(len(path_u), len(path_v)) and path_u[common] == path_v[common]:
                common += 1
            # distance(v, u) meets the pair in the other order
            assert tree.meet(u, v) == path_u[common - 1], (u, v)
            assert tree.distance(v, u) == len(path_u) + len(path_v) - 2 * common, (u, v)


def test_parent_refuses_a_vertex_past_max_depth():
    for k in (1, 2, 3, 5):
        tree = TreeGeometry(k, max_depth=3)
        last = tree.ball_size(3) - 1
        assert tree.parent(last) == tree.ancestor_at_level(last, 2)
        with pytest.raises(DepthLimitError):
            TreeGeometry(k, max_depth=3).parent(last + 1)
        with pytest.raises(DepthLimitError):
            tree.parent(last + 1)
        with pytest.raises(ValueError):
            tree.parent(-1)


@pytest.mark.parametrize("call, message", [
    (lambda: TreeGeometry(2, max_depth=0), "max_depth must be >= 1, got 0"),
    (lambda: TreeGeometry(2).index_of(1, 3), "position 3 out of range at level 1"),
    (lambda: TreeGeometry(2).ball_size(-1), "depth must be non-negative, got -1"),
], ids=["max-depth", "index_of-position", "negative-depth"])
def test_public_guards_raise_their_documented_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
