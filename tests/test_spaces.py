"""Window construction, metrics, growth measurement, quasi-lattice checks."""

import gc
import hashlib
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from coarselab import fill, opalg, spaces
from coarselab.errors import MarginError, PointNotInWindowError, WindowError


def test_interval_point_count():
    w = spaces.make_window("zd", 10, 2, dim=1)
    assert w.n_points == 21
    assert sorted(w.label(i)[0] for i in range(21)) == list(range(-10, 11))


@pytest.mark.parametrize("dim, W, metric", [
    (1, 5, "l1"), (2, 4, "l1"), (2, 14, "linf"), (3, 3, "l1"), (3, 4, "linf")])
def test_zd_coords_lexicographic(dim, W, metric):
    # fill sorts simplices by point id and relies on ids following label order
    w = spaces.make_window("zd", W, 0, dim=dim, metric=metric)
    labels = [tuple(r) for r in w.coords.tolist()]
    assert labels == sorted(labels)
    assert len(set(labels)) == w.n_points


def test_z2_l1_unit_ball():
    w = spaces.make_window("zd", 1, 0, dim=2)
    assert w.n_points == 5


def test_interval_z_alias():
    # interval_z is a spelling of zd with dim 1, resolved by make_window: the
    # window is a zd window, and an old descriptor that names it still loads
    w = spaces.make_window("interval_z", 7, 1)
    assert w.n_points == 15
    assert (w.kind, w.dim, w.metric) == ("zd", 1, "l1")
    z = spaces.make_window("zd", 7, 1, dim=1)
    assert np.array_equal(w.coords, z.coords)
    pts = np.arange(w.n_points)
    assert np.array_equal(w.dist_cross(pts, pts), z.dist_cross(pts, pts))
    assert w.descriptor() == z.descriptor()
    old = {"kind": "interval_z", "W": 7, "margin": 1, "metric": "l1"}
    assert spaces.window_from_descriptor(old).descriptor() == z.descriptor()
    assert spaces.make_window("interval_z", 7, 1, metric="l1", dim=1).descriptor() \
        == z.descriptor()
    for kw in (dict(dim=2), dict(metric="linf"), dict(metric="word")):
        with pytest.raises(WindowError, match="interval_z is zd with dim 1"):
            spaces.make_window("interval_z", 7, 1, **kw)


@pytest.mark.parametrize("kind, kw", [
    ("zd", dict(dim=2, metric="word")),
    ("zd", dict(dim=2, metric="graph")),
    ("zd", dict(metric="l1")),
    ("zd", dict(dim=0)),
    ("heisenberg3", dict(metric="l1")),
    ("heisenberg3", dict(metric="graph")),
    ("heisenberg3", dict(dim=3)),
    ("tree3", dict(metric="linf")),
    ("tree3", dict(metric="word")),
    ("tree3", dict(dim=1)),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()))
def test_make_window_refuses_what_the_kind_does_not_use(kind, kw):
    # a metric or dim the kind has no use for is refused, not dropped
    with pytest.raises(WindowError, match="spaces.make_window: "):
        spaces.make_window(kind, 3, 0, **kw)


def test_make_window_takes_each_kinds_own_metrics():
    for kind, metrics, dim in (("zd", ("l1", "linf"), 2),
                               ("heisenberg3", ("word",), None),
                               ("tree3", ("graph",), None)):
        default = spaces.make_window(kind, 3, 0, dim=dim)
        assert default.metric == metrics[0]
        for metric in metrics:
            w = spaces.make_window(kind, 3, 0, metric=metric, dim=dim)
            assert w.metric == metric
            assert spaces.window_from_descriptor(w.descriptor()).descriptor() \
                == w.descriptor()


def _heis_words_upto(L):
    # independent oracle: enumerate all words over the generators and reduce
    gens = {"x": (1, 0, 0), "X": (-1, 0, 0), "y": (0, 1, 0), "Y": (0, -1, 0)}

    def mul(p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    lengths = {(0, 0, 0): 0}
    frontier = {(0, 0, 0)}
    for ell in range(1, L + 1):
        nxt = set()
        for g in frontier:
            for s in gens.values():
                h = mul(g, s)
                if h not in lengths:
                    lengths[h] = ell
                    nxt.add(h)
        frontier = nxt
    return lengths


def test_heisenberg_count_matches_word_oracle():
    w = spaces.make_window("heisenberg3", 4, 1)
    oracle = _heis_words_upto(4)
    assert w.n_points == len(oracle)
    for i in range(w.n_points):
        assert oracle[w.label(i)] == w.dist_to_base[i]


def test_heisenberg_commutator_length():
    w = spaces.make_window("heisenberg3", 4, 1)
    z = w.index_of((0, 0, 1))
    assert w.dist(w.base, z) == 4


def test_distance_examples(zplane):
    p = zplane.index_of((0, 0))
    q = zplane.index_of((2, 3))
    assert zplane.dist(p, q) == 5
    assert zplane.dist(q, q) == 0


@pytest.mark.parametrize("fixture", ["zline", "zplane", "heis", "tree"])
def test_metric_axioms_random_triples(fixture, request):
    w = request.getfixturevalue(fixture)
    rng = np.random.default_rng(42)
    idx = rng.integers(0, w.n_points, size=(1000, 3))
    for a, b, c in idx:
        dab = w.dist(int(a), int(b))
        dba = w.dist(int(b), int(a))
        dac = w.dist(int(a), int(c))
        dcb = w.dist(int(c), int(b))
        assert dab == dba >= 0
        assert dab <= dac + dcb
        assert (dab == 0) == (a == b or w.label(int(a)) == w.label(int(b)))


def test_ball_volume_examples(zline, zplane, tree):
    assert spaces.ball_volume(zline, zline.base, 2) == 5
    assert spaces.ball_volume(zplane, zplane.base, 1) == 5
    assert spaces.ball_volume(tree, tree.base, 3) == 22  # 1 + 3 + 6 + 12


def test_ball_volume_closed_forms(zline, zplane):
    # direct-enumeration oracle for l1 balls in dimensions 1 and 2
    for R in range(0, 8):
        assert spaces.ball_volume(zline, zline.base, R) == 2 * R + 1
    for R in range(0, 5):
        count = sum(1 for x in range(-R, R + 1) for y in range(-R, R + 1)
                    if abs(x) + abs(y) <= R)
        assert spaces.ball_volume(zplane, zplane.base, R) == count == \
            2 * R * R + 2 * R + 1


@pytest.mark.parametrize("kind, W, kw", [
    ("zd", 7, dict(dim=1)), ("zd", 4, dict(dim=2)), ("zd", 3, dict(dim=2, metric="linf")),
    ("heisenberg3", 4, {}), ("tree3", 5, {})],
    ids=["zd1", "zd2", "zd2-linf", "heisenberg3", "tree3"])
def test_ball_volume_off_the_base_point(kind, W, kw):
    # a centre other than the base takes its own branch: check it against a
    # count over dist at every radius the window allows, on centres at each
    # distance from the base; these spaces are homogeneous, so every ball of
    # radius R also has the volume of the one around the base
    w = spaces.make_window(kind, W, 0, **kw)
    for r in range(1, W):
        center = int(np.flatnonzero(w.dist_to_base == r)[-1])
        dists = [w.dist(center, p) for p in range(w.n_points)]
        for R in range(W - r + 1):
            volume = spaces.ball_volume(w, center, R)
            assert volume == sum(d <= R for d in dists)
            assert volume == spaces.ball_volume(w, w.base, R)


def test_ball_volume_monotone(zplane):
    vols = [spaces.ball_volume(zplane, zplane.base, R) for R in range(6)]
    assert vols == sorted(vols)


def test_ball_volume_margin_error(zline):
    edge = zline.index_of((15,))
    with pytest.raises(MarginError) as exc:
        spaces.ball_volume(zline, edge, 4)
    assert "safe for radius" in str(exc.value)


def test_growth_fit_z1():
    w = spaces.make_window("zd", 16, 0, dim=1)
    fit = spaces.fit_growth(w)
    assert 0.9 <= fit.M <= 1.1
    assert not fit.exponential_flag
    for R in range(1, 17):
        assert 2 * R + 1 <= fit.D * R ** fit.M * (1 + 1e-12)


def test_growth_fit_z2():
    w = spaces.make_window("zd", 16, 0, dim=2)
    fit = spaces.fit_growth(w)
    assert 1.8 <= fit.M <= 2.2
    assert not fit.exponential_flag


def test_growth_fit_z3():
    w = spaces.make_window("zd", 16, 0, dim=3)
    fit = spaces.fit_growth(w)
    assert 2.8 <= fit.M <= 3.2
    assert not fit.exponential_flag


def test_growth_fit_tree_exponential(tree):
    fit = spaces.fit_growth(tree)
    assert fit.exponential_flag


def test_growth_fit_degenerate():
    with pytest.raises(WindowError):
        spaces.fit_growth(spaces.make_window("zd", 2, 0, dim=1))


def test_quasi_lattice_full_and_even(zline):
    c, K = spaces.quasi_lattice_check(zline, list(range(zline.n_points)))
    assert c == 0 and K[1] == 3
    evens = [i for i in range(zline.n_points) if zline.label(i)[0] % 2 == 0]
    c2, K2 = spaces.quasi_lattice_check(zline, evens)
    assert c2 == 1 and K2[2] == 3


def test_quasi_lattice_random_half(zplane):
    rng = np.random.default_rng(3)
    half = [i for i in range(zplane.n_points) if rng.random() < 0.5]
    c, K = spaces.quasi_lattice_check(zplane, half)
    assert c >= 0 and np.isfinite(c)
    assert all(K[r] >= 1 for r in K)


def test_quasi_lattice_empty_subset(zline):
    with pytest.raises(WindowError):
        spaces.quasi_lattice_check(zline, [])


def test_unsupported_kind():
    with pytest.raises(WindowError):
        spaces.make_window("moebius", 4, 0)


def test_memory_budget():
    with pytest.raises(WindowError):
        spaces.make_window("zd", 300, 0, dim=2, max_points=1000)


def test_heisenberg_memory_budget():
    # W=4 has 135 points; W=40 is refused before its coordinate box is built
    assert spaces.make_window("heisenberg3", 4, 0, max_points=135).n_points == 135
    with pytest.raises(WindowError):
        spaces.make_window("heisenberg3", 4, 0, max_points=134)
    with pytest.raises(WindowError):
        spaces.make_window("heisenberg3", 40, 0, max_points=1000)


@pytest.mark.parametrize("W", [1, 4, 16])
def test_heisenberg_index_of_roundtrip(W):
    w = spaces.make_window("heisenberg3", W, 0)
    assert all(w.index_of(w.label(i)) == i for i in range(w.n_points))
    assert w.base == w.index_of((0, 0, 0))


def test_heisenberg_index_of_outside():
    W = 4
    C = W * W // 4
    w = spaces.make_window("heisenberg3", W, 0)
    # inside the coordinate box |a|, |b| <= W, |c| <= C but at distance W + 1
    beyond = [p for p, ell in _heis_words_upto(W + 1).items()
              if ell == W + 1 and max(abs(p[0]), abs(p[1])) <= W and abs(p[2]) <= C]
    assert beyond
    outside = [(0, 0), (0, 0, 0, 0), (W + 1, 0, 0), (0, -W - 1, 0),
               (0, 0, C + 1), (0, 0, -C - 1)]
    for label in outside + beyond:
        with pytest.raises(PointNotInWindowError):
            w.index_of(label)


def test_tree_memory_budget():
    # W=5 has 94 points; W=40 is refused before anything is allocated
    assert spaces.make_window("tree3", 5, 0, max_points=94).n_points == 94
    with pytest.raises(WindowError):
        spaces.make_window("tree3", 5, 0, max_points=93)
    tracemalloc.start()
    try:
        with pytest.raises(WindowError, match="budget"):
            spaces.make_window("tree3", 40, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_tree_build_memory():
    # no per-point Python objects: five int64 arrays of 196,606 entries
    # (about 1.6 MB each) and the safe mask; a path tuple per point exceeds it
    tracemalloc.start()
    try:
        spaces.make_window("tree3", 16, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e7


@pytest.mark.parametrize("W", [1, 2, 6])
def test_tree_ids_breadth_first(W):
    # ids run breadth first, children in step order: the labels are every
    # path (first step 0..2, later steps 0..1) of length <= W, sorted by
    # (length, path), and each point's parent is its path without the last step
    w = spaces.make_window("tree3", W, 0)
    paths = [()]
    for d in range(1, W + 1):
        paths += sorted(p + (c,) for p in paths if len(p) == d - 1
                        for c in range(3 if d == 1 else 2))
    assert [w.label(i) for i in range(w.n_points)] == paths
    assert w.n_points == 3 * 2 ** W - 2
    assert np.array_equal(w.dist_to_base, [len(p) for p in paths])
    assert w.parent[0] == -1
    assert [paths[int(j)] for j in w.parent[1:]] == [p[:-1] for p in paths[1:]]
    assert all(type(c) is int for p in map(w.label, range(w.n_points)) for c in p)


def test_tree_index_of_rejects_non_paths():
    w = spaces.make_window("tree3", 4, 0)
    assert w.index_of(()) == w.base == 0
    for path in [(3,), (0, 2), (1, 1, 2), (-1,), (0, -1), (0.5,), (1, 0.5),
                 ("0",), (0, 0, 0, 0, 0), (2, 1, 1, 1, 1)]:
        with pytest.raises(PointNotInWindowError):
            w.index_of(path)


WINDOWS_OF_EVERY_KIND = [
    pytest.param(dict(kind="zd", W=4, margin=1, dim=2), id="zd2-l1"),
    pytest.param(dict(kind="zd", W=3, margin=0, dim=3, metric="linf"), id="zd3-linf"),
    pytest.param(dict(kind="interval_z", W=6, margin=2), id="interval"),
    pytest.param(dict(kind="heisenberg3", W=3, margin=1), id="heisenberg3"),
    pytest.param(dict(kind="tree3", W=1, margin=0), id="tree3-W1"),
    pytest.param(dict(kind="tree3", W=5, margin=2), id="tree3-W5"),
]


@pytest.mark.parametrize("kw", WINDOWS_OF_EVERY_KIND)
def test_index_of_label_roundtrip(kw):
    w = spaces.make_window(**kw)
    assert [w.index_of(w.label(i)) for i in range(w.n_points)] == list(range(w.n_points))


@pytest.mark.parametrize("kw", WINDOWS_OF_EVERY_KIND)
def test_index_of_refuses_non_integer_coordinates(kw):
    # a coordinate that is not an integer names no point, on every kind;
    # numpy integers do name one
    w = spaces.make_window(**kw)
    label = w.label(w.n_points - 1)
    assert w.index_of(tuple(np.int64(c) for c in label)) == w.n_points - 1
    for bad in [(0.5,), ("a",), (0.5, 0, 0), (1.0,), ("0",), (0, None),
                (*label[:-1], 0.5), (*label[:-1], "1"), 3, None]:
        with pytest.raises(PointNotInWindowError):
            w.index_of(bad)


@pytest.mark.parametrize("kw", WINDOWS_OF_EVERY_KIND)
def test_label_checks_point_range(kw):
    w = spaces.make_window(**kw)
    for i in (-1, w.n_points, -w.n_points - 1):
        with pytest.raises(PointNotInWindowError):
            w.label(i)


@pytest.mark.parametrize("kw", WINDOWS_OF_EVERY_KIND)
def test_window_arrays_read_only(kw):
    w = spaces.make_window(**kw)
    # the tree distance reads dist_to_base as depth: a stray write would
    # change every distance through that point
    arrays = [w.dist_to_base, w.safe_mask, w.safe_points]
    arrays += [w.parent] if w.kind == "tree3" else [w.coords]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1


def test_heisenberg_build_memory():
    # no per-point Python objects: the peak is the BFS arrays plus the 0.56 MB
    # id box (about 1.9 MB); a label tuple per point (27,905) exceeds the bound
    tracemalloc.start()
    try:
        spaces.make_window("heisenberg3", 16, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_point_identity_and_lookup(zplane):
    i = zplane.index_of((3, -2))
    assert zplane.label(i) == (3, -2)
    with pytest.raises(PointNotInWindowError):
        zplane.index_of((99, 0))


def test_descriptor_roundtrip(zplane):
    w2 = spaces.window_from_descriptor(zplane.descriptor())
    assert w2.n_points == zplane.n_points
    assert w2.descriptor() == zplane.descriptor()


def test_margin_validation():
    with pytest.raises(WindowError):
        spaces.make_window("zd", 4, 5, dim=1)
    with pytest.raises(WindowError):
        spaces.make_window("zd", 0, 0, dim=1)


def test_linf_metric_ball():
    w = spaces.make_window("zd", 2, 0, dim=2, metric="linf")
    assert w.n_points == 25
    a = w.index_of((-2, 1))
    b = w.index_of((1, 2))
    assert w.dist(a, b) == 3


# -- array-backed geometry against independent oracles -------------------------

_ZD_CASES = [(1, "l1", 6), (1, "linf", 6), (2, "l1", 4), (2, "linf", 3),
             (3, "l1", 3), (3, "linf", 2)]


def _zd_oracle(w):
    labels = [w.label(i) for i in range(w.n_points)]
    agg = sum if w.metric == "l1" else max
    return np.array([[agg(abs(x - y) for x, y in zip(p, q)) for q in labels]
                     for p in labels])


def _heis_oracle(w):
    # d(p, q) = |p^-1 q| from the word enumeration out to radius 2W
    lengths = _heis_words_upto(2 * w.W)

    def rel(p, q):
        (a, b, c), (A, B, C) = p, q
        return (A - a, B - b, C - c - a * (B - b))

    labels = [w.label(i) for i in range(w.n_points)]
    return np.array([[lengths[rel(p, q)] for q in labels] for p in labels])


def _tree_oracle(w):
    # breadth-first search on the window graph, edges path <-> path[:-1]
    labels = [w.label(i) for i in range(w.n_points)]
    where = {p: i for i, p in enumerate(labels)}
    nbrs = [[] for _ in labels]
    for i, p in enumerate(labels):
        if p:
            j = where[p[:-1]]
            nbrs[i].append(j)
            nbrs[j].append(i)
    D = np.full((w.n_points, w.n_points), -1)
    for s in range(w.n_points):
        D[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if D[s, v] < 0:
                        D[s, v] = D[s, u] + 1
                        nxt.append(v)
            frontier = nxt
    return D


def _geometry_cases():
    for dim, metric, W in _ZD_CASES:
        yield pytest.param(("zd", W, dim, metric), id=f"zd{dim}-{metric}")
    yield pytest.param(("heisenberg3", 4, None, None), id="heisenberg3")
    yield pytest.param(("tree3", 5, None, None), id="tree3")
    for W in (1, 7):
        yield pytest.param(("tree3", W, None, None), id=f"tree3-W{W}")


@pytest.mark.parametrize("case", list(_geometry_cases()))
def test_distances_match_oracle(case):
    kind, W, dim, metric = case
    w = spaces.make_window(kind, W, 1, metric=metric, dim=dim)
    oracle = {"zd": _zd_oracle, "heisenberg3": _heis_oracle,
              "tree3": _tree_oracle}[kind](w)
    pts = np.arange(w.n_points)
    D = w.dist_cross(pts, pts)
    assert D.dtype == np.int64
    assert np.array_equal(D, oracle)
    # negative ids are refused, not read from the end as numpy indexing would
    with pytest.raises(PointNotInWindowError):
        w.dist_cross(pts - w.n_points, pts)
    ii, jj = np.meshgrid(pts, pts, indexing="ij")
    assert np.array_equal(w.dist_many(ii.ravel(), jj.ravel()), oracle.ravel())
    rng = np.random.default_rng(5)
    for a, b in rng.integers(0, w.n_points, size=(300, 2)):
        assert w.dist(int(a), int(b)) == oracle[a, b]
    sub = rng.integers(0, w.n_points, size=(40, 3))
    assert np.array_equal(w.tuple_lengths(sub), [
        max(oracle[t[0], t[1]], oracle[t[0], t[2]], oracle[t[1], t[2]]) for t in sub])


def test_distance_arguments_checked(heis, tree, zline):
    for w in (heis, tree, zline):
        with pytest.raises(PointNotInWindowError):
            w.dist(0, w.n_points)
        with pytest.raises(WindowError):
            w.dist_many([0, 1], [0])


@pytest.mark.parametrize("fixture", ["zline", "zplane", "heis", "tree"])
def test_distance_ids_range_checked(fixture, request):
    # every vectorized distance refuses ids outside 0 .. n_points - 1, as
    # dist does; empty id arrays give empty answers
    w = request.getfixturevalue(fixture)
    n = w.n_points
    for bad in (-1, n, -n, n + 5):
        ids, good = np.array([0, bad, 1]), np.array([0, 1, 2])
        for call in (lambda: w.dist_many(ids, good),
                     lambda: w.dist_many(good, ids),
                     lambda: w.dist_cross(ids, good),
                     lambda: w.dist_cross(good[:1], ids),
                     lambda: w.tuple_lengths(np.stack([good, ids], 1)),
                     lambda: w.tuple_length((0, bad))):
            with pytest.raises(PointNotInWindowError, match=f"id {bad} "):
                call()
    empty = np.array([], dtype=np.int64)
    assert w.dist_many(empty, empty).shape == (0,)
    assert w.dist_cross(empty, [0, 1]).shape == (0, 2)
    assert w.dist_cross([0, 1], empty).shape == (2, 0)
    assert w.tuple_lengths(np.empty((0, 3), dtype=np.int64)).shape == (0,)
    assert w.dist_many([n - 1], [w.base]) == w.dist_to_base[n - 1]


@pytest.mark.parametrize("dim, metric, W", _ZD_CASES)
def test_index_many_roundtrip_and_outside(dim, metric, W):
    w = spaces.make_window("zd", W, 1, metric=metric, dim=dim)
    assert np.array_equal(w.index_many(w.coords), np.arange(w.n_points))
    assert np.array_equal(w.index_many(w.coords[::-1].reshape(1, -1, dim)),
                          np.arange(w.n_points)[::-1].reshape(1, -1))
    box = np.stack(np.meshgrid(*[np.arange(-W - 2, W + 3)] * dim, indexing="ij"),
                   -1).reshape(-1, dim)
    where = {w.label(i): i for i in range(w.n_points)}
    expect = [where.get(tuple(c), -1) for c in box.tolist()]
    assert np.array_equal(w.index_many(box), expect)
    far = np.full((1, dim), 10 * W)
    assert w.index_many(far).tolist() == [-1]
    assert w.index_many(-far).tolist() == [-1]
    with pytest.raises(PointNotInWindowError):
        w.index_of(tuple(far[0]))
    with pytest.raises(PointNotInWindowError):
        w.index_many(np.zeros((2, dim + 1), dtype=int))


def test_index_many_refuses_non_integer_coordinates():
    w = spaces.make_window("zd", 4, 1, dim=1)
    with pytest.raises(PointNotInWindowError):
        w.index_of((0.5,))
    for coords in ([[0.5], [2.9], [-0.7]], [[2.0]], np.zeros((0, 1))):
        with pytest.raises(PointNotInWindowError, match="are not integers"):
            w.index_many(coords)
    assert w.index_many([[0], [2], [-5]]).tolist() == [w.index_of((0,)), w.index_of((2,)), -1]
    assert w.index_many(np.array([[3]], dtype=np.uint8)).tolist() == [w.index_of((3,))]


def test_index_many_needs_lattice(heis, tree):
    for w in (heis, tree):
        with pytest.raises(WindowError):
            w.index_many([[0, 0, 0]])
    assert heis.index_of(heis.label(7)) == 7
    assert tree.index_of(tree.label(9)) == 9
    with pytest.raises(PointNotInWindowError):
        tree.index_of((0, 0, 0, 0, 0, 0, 0, 0))


# (row, col, data) digests of random_banded, recorded before the pair
# enumeration was vectorized; the pair order fixes which rng draw lands where
_BANDED_CASES = [
    ("zd1-l1", dict(kind="zd", W=12, margin=4, dim=1), 2),
    ("zd2-linf", dict(kind="zd", W=7, margin=3, dim=2, metric="linf"), 2),
    ("zd3-l1", dict(kind="zd", W=5, margin=2, dim=3), 2),
    ("interval", dict(kind="interval_z", W=10, margin=3), 3),
    ("heisenberg3", dict(kind="heisenberg3", W=5, margin=2), 2),
    ("tree3", dict(kind="tree3", W=6, margin=2), 2),
]
_BANDED_DIGESTS = {
    "zd1-l1": ("35d2506c5cf75e9c", "f28ea6f4e1ff19fb", "eeadc2d4ae32b7ba"),
    "zd2-linf": ("47a6d184f54fe13c", "c32bde3756ed79dd", "3ebf8107c8009640"),
    "zd3-l1": ("5e6ef69edefa164a", "4652c6f65a0da54e", "c8c9beb8aaccb382"),
    "interval": ("e3a535ba37dc3617", "0d7a6a32cce8e063", "2c3db3c0aaae7594"),
    "heisenberg3": ("65b25eff0ee578ab", "c3c3af85e4b86fb7", "3c4e784e0ef734ba"),
    "tree3": ("7ce4b7b78c0dc00f", "b6a0a70ff1953e78", "3ac2fcd0ce948cad"),
}


def _coo_digest(A):
    coo = A.mat.tocoo()
    h = hashlib.sha256()
    for arr in (coo.row.astype(np.int64), coo.col.astype(np.int64),
                coo.data.astype(np.complex128)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name, kw, prop", _BANDED_CASES,
                         ids=[c[0] for c in _BANDED_CASES])
def test_random_banded_pinned(draw_everywhere, name, kw, prop):
    w = spaces.make_window(**kw)

    def digests():
        return (_coo_digest(opalg.random_banded(w, 0, prop=prop, decay=0.7)),
                _coo_digest(draw_everywhere(w, 11, prop=prop, decay=0.7)),
                _coo_digest(opalg.random_banded(w, (5, 1), prop=prop, fiber=2,
                                                density=0.4)))

    assert digests() == _BANDED_DIGESTS[name]
    # the window's memo now also holds the stencils of other draws and the
    # probes of a profile; the pinned draws, read from it, are unchanged
    for p, draw, fiber, integer in itertools.product(
            (prop - 1, prop, prop + 1), (opalg.random_banded, draw_everywhere),
            (1, 2), (False, True)):
        draw(w, 3, prop=p, fiber=fiber, integer=integer)
    A = opalg.random_banded(w, 1, prop=prop, decay=0.7)
    first, again = opalg.mu_profile(A, 2), opalg.mu_profile(A, 2)
    assert np.array_equal(first.lower, again.lower)
    assert np.array_equal(first.upper, again.upper)
    assert digests() == _BANDED_DIGESTS[name]


# digests at the decays the decay and nonlattice benchmarks draw: decay 0.5
# and 0.6, then a fiber-2 draw at 0.6, recorded before the Gaussians were
# drawn in one call and the decay factor read from a table
_DECAY_DIGESTS = {
    ("zd1-l1", 3): ("7da51f103f79cc57", "ab0bf484e319a298",
                    "ceee528c3e380bb9"),
    ("zd1-l1", 4): ("a238fbfdc5c0b616", "808000fafdc1144b",
                    "770710107733afed"),
    ("heisenberg3", 3): ("300fe93ce7912eae", "4c2e8615afdfe139",
                         "6fa092f87936727c"),
    ("heisenberg3", 4): ("0547e977d151aee5", "c48fb80faa54bd75",
                         "22ed8e64395d1550"),
}


@pytest.mark.parametrize("name, prop", list(_DECAY_DIGESTS),
                         ids=[f"{n}-prop{p}" for n, p in _DECAY_DIGESTS])
def test_random_banded_pinned_at_benchmark_decays(name, prop):
    w = spaces.make_window(**dict((c[0], c[1]) for c in _BANDED_CASES)[name])
    assert (_coo_digest(opalg.random_banded(w, (7, prop), prop=prop, decay=0.5)),
            _coo_digest(opalg.random_banded(w, (8, prop), prop=prop, decay=0.6)),
            _coo_digest(opalg.random_banded(w, (9, prop), prop=prop, decay=0.6,
                                            fiber=2, density=0.4))
            ) == _DECAY_DIGESTS[name, prop]


# (indptr, indices, data) digests, dtypes included, of integer draws on a
# window where some drawn Gaussian integers are 0 + 0i, at density 1 and 0.6:
# recorded while scipy's eliminate_zeros still dropped those entries
_INTEGER_DIGESTS = {
    1: ("6b604f4762d37044", "2a88737e11b764d0"),
    2: ("f2936c2c3987f7ec", "dfed2f855fe34af8"),
}


def _csr_digest(A):
    h = hashlib.sha256()
    for arr in (A.mat.indptr, A.mat.indices, A.mat.data):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("fiber", list(_INTEGER_DIGESTS))
def test_random_banded_integer_zeros_pinned(fiber):
    w = spaces.make_window("zd", 6, 2, dim=2)
    full = opalg.random_banded(w, (3, fiber), prop=2, fiber=fiber, density=1.0,
                               integer=True)
    # every candidate is picked, so the zero draws are what is missing
    assert full.mat.nnz < len(opalg._banded_pairs(w, 2)[0]) * fiber * fiber
    assert (full.mat.data != 0).all()
    part = opalg.random_banded(w, (4, fiber), prop=2, fiber=fiber, density=0.6,
                               integer=True)
    assert (_csr_digest(full), _csr_digest(part)) == _INTEGER_DIGESTS[fiber]


@pytest.mark.parametrize("name, kw, prop", _BANDED_CASES,
                         ids=[c[0] for c in _BANDED_CASES])
def test_random_banded_stores_exact_propagation(name, kw, prop):
    # the propagation set from the draw is the largest distance among the
    # entries left after eliminate_zeros, as entry_point_pairs measures it
    w = spaces.make_window(**kw)
    for fiber, integer in itertools.product((1, 2), (False, True)):
        A = opalg.random_banded(w, 4, prop=prop, decay=0.7, fiber=fiber,
                                integer=integer, density=0.3)
        d = A.entry_point_pairs()[2]
        assert A._prop == (int(d.max()) if len(d) else 0)


def test_random_banded_propagation_skips_zero_entries():
    # integer draws can be 0 + 0i; on three points the distance-2 pairs are
    # sometimes drawn and all zero, and then the propagation is below 2
    w = spaces.make_window("interval_z", 1, 0)
    dists = opalg._banded_pairs(w, 2)[0]
    shorter = 0
    for seed in range(1000):
        A = opalg.random_banded(w, seed, prop=2, integer=True)
        d = A.entry_point_pairs()[2]
        assert A._prop == (int(d.max()) if len(d) else 0)
        drawn = dists[np.random.default_rng(seed).random(len(dists)) < 0.5]
        shorter += A._prop < drawn.max(initial=0)
    assert shorter > 0


def test_window_memo_is_read_only(zplane):
    for arr in (opalg._banded_pairs(zplane, 2) + opalg._probe_subsets(zplane)
                + opalg._probe_table(zplane)):
        with pytest.raises(ValueError):
            arr[0] = 0
    # one enumeration per (window, prop)
    assert opalg._banded_pairs(zplane, 2) is opalg._banded_pairs(zplane, 2)
    assert opalg._probe_subsets(zplane) is opalg._probe_subsets(zplane)
    assert opalg._probe_table(zplane) is opalg._probe_table(zplane)
    # the probe-distance table: each point's distance to each probe support
    dist_to, member = opalg._probe_table(zplane)
    pts = np.arange(zplane.n_points)
    assert dist_to.shape == (zplane.n_points, opalg.PROBE_SUBSETS)
    for j, L in enumerate(opalg._probe_subsets(zplane)):
        assert np.array_equal(dist_to[:, j], zplane.dist_cross(pts, L).min(axis=1))
        assert np.array_equal(np.flatnonzero(member[j]), L)


def test_window_memo_dies_with_window():
    w = spaces.make_window("zd", 6, 3, dim=2)
    A = opalg.random_banded(w, 0, prop=2, decay=0.7)
    opalg.mu_profile(A, 2)
    fill.fill_tuple(w, (int(w.safe_points[0]), int(w.safe_points[-1]), w.base))
    ref = weakref.ref(w)
    table = weakref.ref(opalg._probe_table(w)[0])
    del w, A
    gc.collect()
    assert ref() is None and table() is None
