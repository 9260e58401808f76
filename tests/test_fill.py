"""The simplicial filler: boundary compatibility, roundtrip, the main estimate."""

import hashlib
import itertools

import numpy as np
import pytest

from coarselab import fill, spaces, ufchain
from coarselab.errors import DegreeError, FillError, MarginError, PointNotInWindowError


@pytest.fixture(scope="module")
def wz():
    return spaces.make_window("zd", 16, 4, dim=1)


@pytest.fixture(scope="module")
def w2():
    return spaces.make_window("zd", 12, 4, dim=2)


def test_staircase_on_line(wz):
    i = wz.index_of
    chain = fill.fill_tuple(wz, (i((0,)), i((5,))))
    assert len(chain) == 5
    assert chain.sup_norm() == 1
    b = ufchain.boundary(chain)
    assert b.support == {(i((5,)),): 1, (i((0,)),): -1}


def test_fill_degree0(wz):
    p = wz.index_of((3,))
    chain = fill.fill_tuple(wz, (p,))
    assert chain.support == {(p,): 1}


def test_fill_diagonal_pair_is_zero(wz):
    p = wz.index_of((2,))
    assert len(fill.fill_tuple(wz, (p, p))) == 0


def test_fill_degree2_on_line_is_zero(wz):
    i = wz.index_of
    assert len(fill.fill_tuple(wz, (i((0,)), i((3,)), i((-2,))))) == 0


def test_fill_triangle_boundary_exact(w2):
    j = w2.index_of
    tup = (j((0, 0)), j((3, 0)), j((0, 3)))
    F = fill.fill_tuple(w2, tup)
    lhs = ufchain.boundary(F)
    rhs = ufchain.UfChain(w2, 1)
    for k in range(3):
        rhs = rhs + fill.fill_tuple(w2, tup[:k] + tup[k + 1:]).scale((-1) ** k)
    assert lhs == rhs
    assert all(v == int(v) for v in F.support.values())


def test_boundary_of_filling_random_exact(w2):
    rng = np.random.default_rng(8)
    for _ in range(120):
        pts = [tuple(int(x) for x in rng.integers(-4, 5, size=2))
               for _ in range(3)]
        tup = tuple(w2.index_of(p) for p in pts)
        lhs = ufchain.boundary(fill.fill_tuple(w2, tup))
        rhs = ufchain.UfChain(w2, 1)
        for k in range(3):
            rhs = rhs + fill.fill_tuple(w2, tup[:k] + tup[k + 1:]).scale((-1) ** k)
        assert lhs == rhs


def test_filling_stays_in_bounding_box(w2):
    # the vertices of a filling lie in the bounding box of the tuple's
    # coordinates, but not within tuple-length of its first point: this
    # tuple has length 4 and a filling vertex at distance 6 from (0, 0)
    j = w2.index_of
    tup = (j((0, 0)), j((-2, -2)), j((-4, 0)))
    F = fill.fill_tuple(w2, tup)
    assert w2.tuple_length(tup) == 4
    assert max(w2.dist(tup[0], p) for s in F.support for p in s) == 6
    rng = np.random.default_rng(9)
    for _ in range(300):
        pts = rng.integers(-4, 5, size=(3, 2))
        F = fill.fill_tuple(w2, tuple(j(tuple(int(x) for x in p)) for p in pts))
        verts = np.array([w2.label(p) for s in F.support for p in s]).reshape(-1, 2)
        assert np.all(verts >= pts.min(axis=0)) and np.all(verts <= pts.max(axis=0))


def test_fill_chain_examples(wz):
    i = wz.index_of
    c = ufchain.UfChain(wz, 1, {(i((0,)), i((5,))): 1})
    filled = fill.fill_chain(c)
    assert filled.sup_norm() == 1
    assert len(fill.fill_chain(ufchain.UfChain(wz, 1))) == 0
    # closed triangle relation pushed to degree 1 fills to a cycle
    a, b, cc = i((0,)), i((3,)), i((6,))
    rel = ufchain.UfChain(wz, 1, [((a, b), 1), ((b, cc), 1), ((a, cc), -1)])
    assert len(ufchain.boundary(fill.fill_chain(rel))) == 0


def test_fill_chain_map_random(w2):
    rng = np.random.default_rng(31)
    for q in (1, 2):
        for _ in range(40):
            c = ufchain.random_chain(w2, q, n_terms=4, max_len=3,
                                     seed=int(rng.integers(2 ** 31)),
                                     coeff="int", safe_radius=7)
            lhs = ufchain.boundary(fill.fill_chain(c))
            rhs = fill.fill_chain(ufchain.boundary(c))
            assert lhs == rhs


def _simplicial(window, degree, simplices):
    """A SimplicialChain of the {simplex: coefficient} dict, built through
    add_simplex."""
    s = fill.SimplicialChain(window, degree)
    for simplex, coeff in simplices.items():
        s.add_simplex(simplex, coeff)
    return s


def test_roundtrip_unit_edge(wz):
    i = wz.index_of
    s = _simplicial(wz, 1, {(i((0,)), i((1,))): 1})
    assert fill.roundtrip_identity(s)


def test_roundtrip_kuhn_triangles(w2):
    j = w2.index_of
    low = _simplicial(w2, 2, {(j((0, 0)), j((1, 0)), j((1, 1))): 1})
    high = _simplicial(w2, 2, {(j((0, 0)), j((0, 1)), j((1, 1))): 1})
    assert fill.roundtrip_identity(low)
    assert fill.roundtrip_identity(high)


def test_roundtrip_random_unit_chains(w2):
    rng = np.random.default_rng(4)
    j = w2.index_of
    for _ in range(10):
        s = fill.SimplicialChain(w2, 2)
        for _ in range(10):
            a, b = int(rng.integers(-5, 5)), int(rng.integers(-5, 5))
            if rng.random() < 0.5:
                verts = (j((a, b)), j((a + 1, b)), j((a + 1, b + 1)))
            else:
                verts = (j((a, b)), j((a, b + 1)), j((a + 1, b + 1)))
            s.add_simplex(verts, int(rng.integers(-3, 4)))
        assert fill.roundtrip_identity(s)


def test_non_kuhn_simplex_rejected(w2):
    j = w2.index_of
    with pytest.raises(FillError):
        _simplicial(w2, 2, {(j((0, 0)), j((1, 0)), j((0, 1))): 1})
    with pytest.raises(FillError):
        _simplicial(w2, 1, {(j((0, 0)), j((2, 0))): 1})


def test_kuhn_membership(w2):
    j = w2.index_of

    def kuhn(*pts):
        return fill.kuhn_rows(w2, np.array([sorted(j(p) for p in pts)]))[0]

    assert kuhn((0, 0), (1, 0), (1, 1))
    # the anti-diagonal split is not part of the triangulation
    assert not kuhn((0, 0), (1, 0), (0, 1))
    assert kuhn((0, 0), (1, 1))
    assert not kuhn((0, 0), (1, -1))


def test_margin_violation_names_tuple(w2):
    # the staircase from (0,12) to (12,0) rounds the corner (12,12), outside
    # the l1 ball of radius 12
    j = w2.index_of
    with pytest.raises(MarginError) as exc:
        fill.fill_tuple(w2, (j((0, 12)), j((12, 0))))
    assert "(0, 12)" in str(exc.value)
    assert "(12, 12)" in str(exc.value)


def test_degree3_rejected(wz):
    i = wz.index_of
    with pytest.raises(FillError):
        fill.fill_tuple(wz, (i((0,)), i((1,)), i((2,)), i((3,))))


def test_degree2_dim3_rejected():
    w3 = spaces.make_window("zd", 4, 1, dim=3)
    i = w3.index_of
    with pytest.raises(FillError):
        fill.fill_tuple(w3, (i((0, 0, 0)), i((1, 0, 0)), i((0, 1, 0))))


def test_public_entry_points_refuse_z3():
    # the construction covers Z^3 (see the tests of the private generator
    # below), but only 1-D and 2-D windows are admitted
    w3 = spaces.make_window("zd", 4, 1, dim=3)
    for q in range(4):
        tup = tuple(range(q + 1))
        with pytest.raises(FillError, match="not admitted"):
            fill.fill_chain(ufchain.UfChain(w3, q, {tup: 1}))
        with pytest.raises(FillError, match="not admitted"):
            fill.fill_tuple(w3, tup)
        with pytest.raises(FillError, match="not admitted"):
            fill.contractibility_profile(w3, q)


def test_contractibility_profile_line(wz):
    prof = fill.contractibility_profile(wz, 1)
    assert (prof.C, prof.N) == (1.0, 1.0)
    assert prof.profile == {R: R for R in range(1, 6)}   # rmax = W // 3


def test_contractibility_profile_plane(w2):
    prof = fill.contractibility_profile(w2, 2, rmax=4)
    assert (prof.C, prof.N) == (1.5, 1.0)
    assert prof.profile == {R: 3 * R // 2 for R in range(1, 5)}


def _fill_radius(window, tup):
    """Max distance from a filling vertex to the tuple's first point."""
    verts = np.unique(fill.fill_tuple(window, tup).tuples)
    if len(verts) == 0:
        verts = np.array([tup[0]])
    return int(window.dist_cross([int(tup[0])], verts)[0].max(initial=0))


def _exhaustive_profile(w, degree, rmax):
    """S'(R) over every tuple of length <= R anchored at the origin."""
    o = w.index_of((0,) * w.dim)
    ball = np.flatnonzero(w.dist_to_base <= rmax).tolist()
    best = {R: 0 for R in range(1, rmax + 1)}
    for rest in itertools.product(ball, repeat=degree):
        tup = (o, *rest)
        ln = w.tuple_length(tup)
        if ln <= rmax:
            r = _fill_radius(w, tup)
            for R in range(max(ln, 1), rmax + 1):
                best[R] = max(best[R], r)
    return best


@pytest.mark.parametrize("dim, metric", [(1, "l1"), (2, "l1"), (2, "linf")])
def test_contractibility_profile_against_exhaustive(dim, metric):
    # the filler is translation-equivariant, so tuples anchored at the origin
    # cover every length; the closed form is an upper bound, tight for R >= 2
    w = spaces.make_window("zd", 12, 4, dim=dim, metric=metric)
    for degree in (0, 1, 2):
        closed = fill.contractibility_profile(w, degree, rmax=4)
        exact = _exhaustive_profile(w, degree, 4)
        for R in range(1, 5):
            assert closed.profile[R] >= exact[R]
            assert closed.profile[R] <= closed.C * R ** closed.N
            if R >= 2:
                assert closed.profile[R] == exact[R]
        if (dim, metric, degree) == (2, "l1", 2):
            # at R = 1 a triple repeats a point and fills to zero
            assert [exact[R] for R in range(1, 5)] == [0, 3, 4, 6]


def test_contractibility_profile_refuses_what_fill_refuses():
    with pytest.raises(FillError):
        fill.contractibility_profile(spaces.make_window("tree3", 4, 1), 1)
    with pytest.raises(FillError):
        fill.contractibility_profile(spaces.make_window("zd", 8, 2, dim=1), 3)
    with pytest.raises(FillError):
        fill.contractibility_profile(spaces.make_window("zd", 4, 1, dim=3), 2)


def test_contractibility_profile_ignores_benchmark_keywords():
    # perfbench's exact workload passes samples and seed; they change nothing
    w = spaces.make_window("zd", 24, 4, dim=2)
    for q in (1, 2):
        assert (fill.contractibility_profile(w, q, samples=50, rmax=8, seed=12345)
                == fill.contractibility_profile(w, q, rmax=8))


def test_fill_radius_geometric_bound(w2):
    rng = np.random.default_rng(12)
    for _ in range(40):
        pts = [tuple(int(x) for x in rng.integers(-3, 4, size=2))
               for _ in range(3)]
        tup = tuple(w2.index_of(p) for p in pts)
        ln = w2.tuple_length(tup)
        assert _fill_radius(w2, tup) <= max(2 * ln, 1)


def test_degenerate_tuple_no_radius(w2):
    p = w2.index_of((1, 1))
    assert _fill_radius(w2, (p, p)) == 0


def test_crucial_estimate_line_example():
    w = spaces.make_window("zd", 16, 4, dim=1)
    i = w.index_of
    c = ufchain.UfChain(w, 1, {(i((0,)), i((5,))): 1})
    rep = fill.verify_crucial_estimate(c)
    assert rep.passed
    assert rep.lhs == 1
    assert rep.rhs > rep.lhs
    # exponent rule with the certified constants: n = M*q*(N+1) + 2
    assert rep.n == pytest.approx(rep.M * 1 * (rep.N + 1) + 2)


def test_crucial_estimate_zero_chain():
    w = spaces.make_window("zd", 16, 4, dim=1)
    rep = fill.verify_crucial_estimate(ufchain.UfChain(w, 1))
    assert rep.passed and rep.lhs == 0 and rep.rhs == 0


def test_crucial_estimate_plane_sweep(w2):
    growth = spaces.fit_growth(w2)
    prof = fill.contractibility_profile(w2, 1, rmax=4)
    rng = np.random.default_rng(77)
    for _ in range(40):
        c = ufchain.random_chain(w2, 1, n_terms=4, max_len=2,
                                 seed=int(rng.integers(2 ** 31)),
                                 safe_radius=5)
        rep = fill.verify_crucial_estimate(c, growth, prof)
        assert rep.passed


def test_coefficient_sum_bound(w2):
    prof = fill.contractibility_profile(w2, 1, rmax=4)
    rng = np.random.default_rng(13)
    for _ in range(25):
        c = ufchain.random_chain(w2, 1, n_terms=4, max_len=2,
                                 seed=int(rng.integers(2 ** 31)),
                                 safe_radius=5)
        lhs, rhs = fill.coefficient_sum_bound(c, prof)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_fill_memoization_determinism(wz):
    i = wz.index_of
    tup = (i((0,)), i((7,)))
    a = fill.fill_tuple(wz, tup)
    assert fill.fill_tuple(wz, tup).support == a.support


def test_memoized_filling_cannot_be_changed(wz):
    # a filling is a plain UfChain: no in-place builder, and its
    # arithmetic returns new chains, so later calls see the same filling
    i = wz.index_of
    tup = (i((0,)), i((3,)))
    F = fill.fill_tuple(wz, tup)
    before = dict(F.support)
    assert type(F) is ufchain.UfChain and len(before) == 3
    for name in ("add_simplex", "accumulate"):
        assert not hasattr(F, name)
    assert (F + F).support is not F.support
    F.scale(5)
    F - F
    assert fill.fill_tuple(wz, tup).support == before
    assert type(fill.fill_chain(ufchain.UfChain(wz, 1, {tup: 1}))) is ufchain.UfChain


def test_add_simplex_resets_cached_propagation(w2):
    j = w2.index_of
    s = fill.SimplicialChain(w2, 1)
    assert s.propagation == 0
    edge = (j((2, 2)), j((3, 3)))
    s.add_simplex(edge, 1)
    assert s.propagation == w2.tuple_length(edge) > 0


def test_simplicial_chain_is_a_ufchain(w2):
    j = w2.index_of
    s = _simplicial(w2, 1, {(j((1, 0)), j((0, 0))): 2})
    assert isinstance(s, ufchain.UfChain)
    assert s.support == {(j((0, 0)), j((1, 0))): -2}
    assert ufchain.boundary(s) == ufchain.UfChain(
        w2, 0, {(j((1, 0)),): -2, (j((0, 0)),): 2})
    assert s.sup_norm() == 2 and (s - s).support == {}
    with pytest.raises(DegreeError):
        s.add_simplex((j((0, 0)),), 1)


@pytest.mark.parametrize("make_simplex", [
    lambda w: (3, 4.5),                          # truncated to (3, 4) by an int64 cast
    lambda w: (3, 4.0),                          # a float, even an integral one
    lambda w: (0, w.n_points),                   # one past the last id
    lambda w: (-1, 0),                           # read from the end by numpy
    lambda w: (w.n_points + 5, w.n_points + 5),  # degenerate, but not in the window
], ids=["float", "integral-float", "past-end", "negative", "degenerate-outside"])
def test_add_simplex_refuses_ids_outside_the_window(w2, make_simplex):
    s = fill.SimplicialChain(w2, 1)
    with pytest.raises(PointNotInWindowError, match="not a point id of the window"):
        s.add_simplex(make_simplex(w2), 1)
    assert len(s) == 0
    s.add_simplex(make_simplex(w2), 0)          # a zero coefficient adds nothing
    assert len(s) == 0


def test_add_simplex_sums_in_python_values(w2):
    # the sign is a Python int, so the stored coefficients keep their type
    j = w2.index_of
    edge = (j((1, 1)), j((0, 0)))
    s = _simplicial(w2, 1, {edge: 2})
    s.add_simplex(edge[::-1], 5)
    assert s.support == {edge[::-1]: 3} and s.values.dtype == np.int64
    s.add_simplex(edge, 3)
    assert len(s) == 0 and s.tuples.shape == (0, 2)
    s.add_simplex(edge, 2 ** 70)
    assert s.support == {edge[::-1]: -2 ** 70} and s.values.dtype == object


def test_lattice_only():
    t = spaces.make_window("tree3", 4, 1)
    with pytest.raises(FillError):
        fill.fill_tuple(t, (0, 1))


def test_fill_chain_pinned():
    # fillings of random integer chains of degrees 1 and 2 on a 1-D and a 2-D
    # window: simplices, coefficients and their Python types, recorded when
    # each tuple was filled on its own through a per-window memo
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    for W, margin, dim in ((20, 4, 1), (14, 4, 2)):
        w = spaces.make_window("zd", W, margin, dim=dim)
        for q in (1, 2):
            for _ in range(20):
                c = ufchain.random_chain(w, q, n_terms=4, max_len=4,
                                         seed=int(rng.integers(2 ** 31)), coeff="int",
                                         safe_radius=min(w.margin + 8, w.W - 1))
                digest.update(repr(sorted(fill.fill_chain(c).support.items())).encode())
    assert digest.hexdigest()[:16] == "2f09e9585c402399"



@pytest.mark.parametrize("kind, edges", [
    # coordinate steps of 0/1 vectors, which are not Kuhn edges off Z^3
    ("heisenberg3", [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (1, 1, 1))]),
    ("tree3", [((), (0,)), ((1,), (1, 0))]),
])
def test_simplicial_chain_needs_lattice(kind, edges):
    w = spaces.make_window(kind, 3, 0)
    message = ("fill.SimplicialChain: fillers are defined on lattice windows "
               f"only, got kind={kind!r}")
    for edge in edges:
        with pytest.raises(FillError) as exc:
            _simplicial(w, 1, {tuple(map(w.index_of, edge)): 1})
        assert str(exc.value) == message
    with pytest.raises(FillError):
        fill.SimplicialChain(w, 0)
    with pytest.raises(FillError) as exc:
        fill.fill_chain(ufchain.UfChain(w, 1, [((0, 1), 1)]))
    assert str(exc.value) == message.replace("SimplicialChain", "fill_chain")


def _kuhn_cells(dim, q):
    """Every Kuhn q-simplex of the unit cube [0, 1]^dim as a sorted tuple of
    vertices, built as a chain of axis steps: each step adds a nonzero 0/1
    vector and stays in the cube."""
    cube = list(itertools.product((0, 1), repeat=dim))

    def grow(cell):
        if len(cell) == q + 1:
            yield cell
            return
        for step in cube[1:]:
            head = tuple(a + b for a, b in zip(cell[-1], step))
            if max(head) <= 1:
                yield from grow(cell + (head,))

    return [cell for start in cube for cell in grow((start,))]


def test_fill_outputs_pinned():
    # what test_fill_chain_pinned leaves out: degree 0, degree 2 on a line
    # (which fills to zero), linf 2-D windows, complex coefficients, and the
    # roundtrip of unit Kuhn chains built by add_simplex in shuffled vertex
    # order; recorded before the filler became one construction for every
    # degree, which had to reproduce it bit for bit
    rng = np.random.default_rng(2031)
    digest = hashlib.sha256()
    for W, margin, dim, metric in ((20, 4, 1, "l1"), (14, 4, 2, "l1"), (10, 4, 2, "linf")):
        w = spaces.make_window("zd", W, margin, dim=dim, metric=metric)
        for q, coeff in itertools.product((0, 1, 2), ("int", "complex")):
            for _ in range(8):
                c = ufchain.random_chain(w, q, n_terms=6, max_len=4,
                                         seed=int(rng.integers(2 ** 31)), coeff=coeff,
                                         safe_radius=min(w.margin + 8, w.W - 1))
                f = fill.fill_chain(c)
                digest.update(repr((q, f.values.dtype.str,
                                    sorted(f.support.items()))).encode())
        for q in range(dim + 1):
            cells = _kuhn_cells(dim, q)
            s = fill.SimplicialChain(w, q)
            for _ in range(12):
                anchor = rng.integers(-3, 3, size=dim)
                cell = cells[int(rng.integers(len(cells)))]
                cell = [cell[k] for k in rng.permutation(q + 1)]
                s.add_simplex([w.index_of(tuple((anchor + v).tolist())) for v in cell],
                              int(rng.integers(-4, 5)))
            assert fill.roundtrip_identity(s)
            digest.update(repr((q, sorted(s.support.items()))).encode())
    assert digest.hexdigest()[:16] == "085affa132a01c33"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kuhn_rows_against_chains_of_axis_steps(dim):
    # every sorted row of unit-cube vertices, in every degree up to 3, is a
    # simplex exactly when it is a chain of axis steps
    w = spaces.make_window("zd", dim, 0, dim=dim)
    cube = list(itertools.product((0, 1), repeat=dim))
    for q in range(4):
        cells = list(itertools.combinations(cube, q + 1))
        rows = np.array([[w.index_of(p) for p in cell] for cell in cells],
                        dtype=np.int64).reshape(-1, q + 1)
        assert (np.diff(rows, axis=1) > 0).all()
        kuhn = set(_kuhn_cells(dim, q))
        assert fill.kuhn_rows(w, rows).tolist() == [cell in kuhn for cell in cells]


def _filled(y):
    """F'(y) for a tuple y of lattice points of any dimension, through the
    private generator: {sorted simplex: coefficient}."""
    dim = len(y[0])
    blocks, offsets, fills, corrections = fill._tables(dim)
    corners, shapes, coefs = out = [], [], []
    fill._fill_pieces(out, [list(p) for p in y], blocks, fills, corrections)
    verts = np.reshape(corners, (-1, 1, dim)) + offsets[len(y) - 1][shapes]
    acc = {}
    for v, z in zip(verts.tolist(), coefs):
        key = tuple(map(tuple, v))
        assert list(key) == sorted(key)
        acc[key] = acc.get(key, 0) + z
    return {k: z for k, z in acc.items() if z}


def _face_sum(chains):
    """sum_j (-1)^j chains[j], each a list of (simplex, coefficient) pairs,
    zeros dropped."""
    acc = {}
    for j, c in enumerate(chains):
        for k, z in c:
            acc[k] = acc.get(k, 0) + (-1) ** j * z
    return {k: z for k, z in acc.items() if z}


def test_tables():
    # the orderings of unit Kuhn simplices on which H is not zero: none on
    # Z^1, the diagonal edge both ways on Z^2, 38 on Z^3; and every simplex
    # a piece can be lists distinct vertices in increasing order, which
    # fill_chain and kuhn_rows rely on
    for dim, size in ((1, 0), (2, 2), (3, 38)):
        _, shapes, _, corrections = fill._tables(dim)
        assert sum(map(len, corrections.values())) == size
        for offsets in shapes.values():
            for verts in offsets.tolist():
                assert all(u < v for u, v in zip(verts, verts[1:]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_generator_is_a_chain_map_in_the_box(dim):
    # on random tuples of degrees 1 to 3 (at most dim + 1), crowded into
    # boxes of side 1 to 3 so that faces often order Kuhn simplices: the
    # boundary of F'(y) is the alternating sum of F' over the faces, with
    # every vertex in y's box
    rng = np.random.default_rng(dim)
    for _ in range(450):
        q = int(rng.integers(1, min(3, dim + 1) + 1))
        y = [tuple(p) for p in rng.integers(0, rng.integers(2, 5), size=(q + 1, dim)).tolist()]
        filled = _filled(y)
        boundary = _face_sum([[(s[:j] + s[j + 1:], z) for s, z in filled.items()]
                              for j in range(q + 1)])
        faces = [_filled(y[:j] + y[j + 1:]).items() for j in range(q + 1)]
        assert boundary == _face_sum(faces)
        lo, hi = np.min(y, axis=0), np.max(y, axis=0)
        assert all((lo <= v).all() and (v <= hi).all() for s in filled for v in np.array(s))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kuhn_orderings_fill_to_themselves(dim):
    shift = (3, -2, 1)[:dim]
    for q in range(dim + 1):
        for cell in _kuhn_cells(dim, q):
            simplex = tuple(tuple(a + b for a, b in zip(v, shift)) for v in cell)
            for order in itertools.permutations(range(q + 1)):
                sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
                assert _filled([simplex[k] for k in order]) == {simplex: sign}
