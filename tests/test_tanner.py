"""Tanner graph construction, serialization, covers, and cover reduction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expandercodes import graphs, subcodes, tanner
from expandercodes.errors import (
    InconsistentParameters,
    InputError,
    NotACodewordInCover,
    NotConnected,
    SpecIncomplete,
    SubcodeLengthMismatch,
)
from expandercodes.gf2 import BitMatrix

SPC3 = subcodes.builtin("spc3")
SPC4 = subcodes.builtin("spc4")
REP2 = subcodes.builtin("rep2")


def triangle_cycle_graph():
    # Edge variables of K3: the classic length-3 cycle code.
    h = BitMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    return tanner.from_parity_matrix(h)


def test_constructor_validation():
    with pytest.raises(InputError):
        tanner.TannerGraph(0, 1, [])
    with pytest.raises(InputError):
        # isolated variable 1
        tanner.TannerGraph(2, 1, [(0, 0, 0, 0)])
    with pytest.raises(InputError):
        # parallel edge
        tanner.TannerGraph(1, 1, [(0, 0, 0, 0), (0, 0, 1, 1)])
    with pytest.raises(InputError):
        # variable sockets must be 0..deg-1
        tanner.TannerGraph(1, 2, [(0, 0, 0, 0), (0, 1, 2, 0)])
    with pytest.raises(InputError):
        tanner.TannerGraph(1, 1, [(0, 0, 0, 0)], provenance="mystery")
    with pytest.raises(SubcodeLengthMismatch):
        # degree-2 check labelled with a length-3 code
        tanner.TannerGraph(2, 1, [(0, 0, 0, 0), (1, 0, 0, 1)], labels=[SPC3])


@pytest.mark.parametrize("n_vars, n_checks, edges, message", [
    # two variables on check socket 0
    (2, 1, [(0, 0, 0, 0), (1, 0, 0, 0)], "check 0 sockets are not 0..deg-1"),
    # check sockets 0 and 2: a gap
    (2, 1, [(0, 0, 0, 0), (1, 0, 0, 2)], "check 0 sockets are not 0..deg-1"),
    (2, 1, [(0, 0, 0, 0), (1, 0, 0, -1)], "check 0 sockets are not 0..deg-1"),
    # one variable with socket 0 twice
    (1, 2, [(0, 0, 0, 0), (0, 1, 0, 0)], "variable 0 sockets are not 0..deg-1"),
    (1, 1, [(0, 1, 0, 0)], r"edge 0 out of range: \(0, 1\)"),
    (2, 1, [(0, 0, 0, 0), (-1, 0, 0, 1)], r"edge 1 out of range: \(-1, 0\)"),
    (1, 1, [(0, 0, 0, 0), (0, 0, 0, 0)], "parallel edge between variable 0 and check 0"),
    (1, 2, [(0, 0, 0, 0)], "check 1 is isolated"),
])
def test_constructor_refusals(n_vars, n_checks, edges, message):
    with pytest.raises(InputError, match=message):
        tanner.TannerGraph(n_vars, n_checks, edges)


def reference_index(g):
    """(check_vars, var_checks, var_sockets) with each node's edges sorted by
    socket: the sort-based index the graph kept before it placed edges at
    their sockets."""
    var_edges = [[] for _ in range(g.n_vars)]
    check_edges = [[] for _ in range(g.n_checks)]
    for e, (v, c, vs, cs) in enumerate(g.edges):
        var_edges[v].append((vs, e))
        check_edges[c].append((cs, e))
    var_edges = [[e for _, e in sorted(lst)] for lst in var_edges]
    check_edges = [[e for _, e in sorted(lst)] for lst in check_edges]
    return (tuple(tuple(g.edges[e][0] for e in lst) for lst in check_edges),
            tuple(tuple(g.edges[e][1] for e in lst) for lst in var_edges),
            tuple(tuple((g.edges[e][1], 1 << g.edges[e][3]) for e in lst)
                  for lst in var_edges))


@st.composite
def shuffled_graphs(draw):
    """A graph of a random parity matrix, or a random lift of one, and the
    same graph rebuilt from its edges in a shuffled order."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                                  max_size=rows * cols)), dtype=np.uint8).reshape(rows, cols)
    for j in range(max(rows, cols)):  # no zero row or column
        bits[j % rows, j % cols] = 1
    g = tanner.from_parity_matrix(BitMatrix(bits))
    degree = draw(st.integers(1, 3))
    g = tanner.build_lift(g, tanner.random_lift(g, degree, draw(st.integers(0, 99))))
    edges = draw(st.permutations(g.edges))
    return g, tanner.TannerGraph(g.n_vars, g.n_checks, edges, g.labels)


@settings(max_examples=100, deadline=None)
@given(shuffled_graphs())
def test_shuffled_edges_index_like_the_sorted_reference(pair):
    g, shuffled = pair
    for graph in (g, shuffled):
        check_vars, var_checks, var_sockets = reference_index(graph)
        assert tuple(map(graph.check_vars, range(graph.n_checks))) == check_vars
        assert tuple(map(graph.var_checks, range(graph.n_vars))) == var_checks
        assert graph.var_sockets() == var_sockets
        assert [graph.var_degree(v) for v in range(graph.n_vars)] == list(map(len, var_checks))
        assert [graph.check_degree(c) for c in range(graph.n_checks)] == list(map(len, check_vars))
    assert shuffled.var_sockets() == g.var_sockets()
    assert np.array_equal(shuffled.to_parity_matrix().bits, g.to_parity_matrix().bits)


def test_socket_order_not_insertion_order():
    # Same edges listed backwards: socket numbers, not list position, decide
    # neighbor order.
    g = tanner.TannerGraph(2, 1, [(1, 0, 0, 1), (0, 0, 0, 0)])
    assert g.check_vars(0) == (0, 1)
    assert g.var_checks(0) == (0,)


def test_sockets_count_up_in_listing_order():
    # parity matrix: row-major; edge variables: each base edge's endpoints in turn
    assert triangle_cycle_graph().edges == (
        (0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 0), (2, 1, 0, 1), (0, 2, 1, 0), (2, 2, 1, 1))
    k3 = graphs.complete(3)
    assert k3.edges == ((0, 1), (0, 2), (1, 2))
    assert tanner.build_case_c(k3, REP2).edges == (
        (0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 2, 1, 0), (2, 1, 0, 1), (2, 2, 1, 1))
    k22 = graphs.complete_bipartite(2, 2)
    assert k22.edges == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tanner.build_case_d(k22, REP2, REP2).edges == (
        (0, 0, 0, 0), (0, 2, 1, 0), (1, 0, 0, 1), (1, 3, 1, 0),
        (2, 1, 0, 0), (2, 2, 1, 1), (3, 1, 0, 1), (3, 3, 1, 1))


def test_from_parity_matrix_round_trip():
    h = subcodes.builtin("hamming74").h
    g = tanner.from_parity_matrix(h)
    assert g.n_vars == 7 and g.n_checks == 3
    assert g.all_simple
    back = g.to_parity_matrix()
    assert np.array_equal(back.bits, h.bits)


def test_case_a_shape_and_determinism():
    g = tanner.build_case_a(3, 6, 12, seed=9)
    assert g.n_vars == 12 and g.n_checks == 6
    assert g.biregular_degrees() == (3, 6)
    assert g.all_simple
    assert g.provenance == "case_a"
    assert len(g.edges) == 36
    again = tanner.build_case_a(3, 6, 12, seed=9)
    assert again.edges == g.edges


def test_case_b_labels_every_check():
    g = tanner.build_case_b(2, 4, 8, SPC4, seed=3)
    assert all(lab is SPC4 for lab in g.labels)
    assert g.provenance == "case_b"
    with pytest.raises(SubcodeLengthMismatch):
        tanner.build_case_b(2, 5, 10, SPC4, seed=3)


def test_case_c_shape():
    base = graphs.complete(4)
    g = tanner.build_case_c(base, SPC3)
    assert g.n_vars == 6 and g.n_checks == 4
    assert all(g.var_degree(v) == 2 for v in range(6))
    assert all(g.check_degree(c) == 3 for c in range(4))
    assert all(lab is SPC3 for lab in g.labels)
    with pytest.raises(SubcodeLengthMismatch):
        tanner.build_case_c(base, SPC4)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    two_k4 = graphs.Graph(8, tuple(k4) + tuple((u + 4, v + 4) for u, v in k4))
    with pytest.raises(NotConnected):
        tanner.build_case_c(two_k4, SPC3)


def test_case_c_base_round_trip():
    base = graphs.petersen()
    g = tanner.build_case_c(base, SPC3)
    back = tanner.reconstruct_base(g)
    assert back.n == base.n
    assert sorted(back.edges) == sorted(base.edges)


def test_case_d_shape_and_round_trip():
    base = graphs.complete_bipartite(3, 2)
    g = tanner.build_case_d(base, REP2, SPC3)
    assert g.n_vars == 6 and g.n_checks == 5
    assert g.labels[:3] == (REP2,) * 3
    assert g.labels[3:] == (SPC3,) * 2
    # socket 0 of every variable points at a left check
    for t in range(g.n_vars):
        left, right = g.var_checks(t)
        assert left < 3 <= right
    back = tanner.reconstruct_bipartite_base(g)
    assert (back.n_left, back.n_right) == (3, 2)
    assert sorted(back.edges) == sorted(base.edges)
    with pytest.raises(SubcodeLengthMismatch):
        tanner.build_case_d(base, SPC3, SPC3)


def test_expander_params_rates():
    a = tanner.expander_params(tanner.build_case_a(3, 6, 12, seed=1))
    assert a.rate_bound == Fraction(1, 2)
    assert (a.c, a.d) == (3, 6)
    b = tanner.expander_params(tanner.build_case_b(2, 4, 8, SPC4, seed=1))
    assert b.rate_bound == Fraction(1, 2)
    assert b.subcode_names == ("spc4",)
    c = tanner.expander_params(tanner.build_case_c(graphs.complete(4), SPC3))
    assert c.rate_bound == Fraction(1, 3)
    d = tanner.expander_params(
        tanner.build_case_d(graphs.complete_bipartite(3, 2), REP2, SPC3))
    assert d.rate_bound == Fraction(1, 2) + Fraction(2, 3) - 1
    with pytest.raises(InputError):
        tanner.expander_params(triangle_cycle_graph())  # imported


def test_json_round_trip():
    for g in (tanner.build_case_a(2, 4, 8, seed=2),
              tanner.build_case_b(2, 4, 8, SPC4, seed=2),
              tanner.build_case_c(graphs.complete(4), SPC3)):
        back = tanner.TannerGraph.from_json(g.to_json())
        assert back.n_vars == g.n_vars
        assert back.n_checks == g.n_checks
        assert back.edges == g.edges
        assert back.provenance == g.provenance
        for mine, theirs in zip(g.labels, back.labels):
            if mine is None:
                assert theirs is None
            else:
                assert theirs.name == mine.name
                assert np.array_equal(theirs.h.bits, mine.h.bits)
                assert np.array_equal(theirs.codewords, mine.codewords)


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        tanner.TannerGraph.from_json("not json {")
    with pytest.raises(InputError):
        tanner.TannerGraph.from_json('{"format": "something-else"}')



@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("7", "int"),
                                        ('"tanner-graph"', "str"), ("null", "NoneType")])
def test_json_that_is_not_an_object_is_refused(text, kind):
    with pytest.raises(InputError, match=f"must be an object, got {kind}"):
        tanner.TannerGraph.from_json(text)


def identity_lift(g, degree):
    """The cover of `degree` disjoint copies: copy t meets copy t."""
    return tanner.LiftSpec(degree, (tuple(range(degree)),) * len(g.edges))


def test_lift_spec_validation():
    g = triangle_cycle_graph()
    with pytest.raises(SpecIncomplete):
        tanner.LiftSpec(0, ())
    with pytest.raises(SpecIncomplete):
        tanner.LiftSpec(2, ((0, 0),) * 6)
    with pytest.raises(SpecIncomplete):
        tanner.build_lift(g, tanner.LiftSpec(2, ((0, 1),)))  # 1 perm, 6 edges


def test_build_lift_structure():
    g = tanner.build_case_b(2, 4, 8, SPC4, seed=5)
    spec = tanner.random_lift(g, 3, seed=11)
    lift = tanner.build_lift(g, spec)
    assert lift.n_vars == 24 and lift.n_checks == 12
    assert lift.biregular_degrees() == (2, 4)
    assert all(lab is SPC4 for lab in lift.labels)
    # cloud t of variable v keeps v's sockets
    for (v, c, vs, cs), perm in zip(g.edges, spec.permutations):
        for t in range(3):
            assert (v * 3 + t, c * 3 + perm[t], vs, cs) in lift.edges


def test_reduce_identity_lift_returns_base_word():
    g = triangle_cycle_graph()
    spec = identity_lift(g, 3)
    # copy t of variable v sits at v*3 + t, so a lifted word repeats per cloud
    word = np.repeat(np.array([1, 1, 1], dtype=np.uint8), 3)
    p = tanner.reduce_cover_codeword(word, g, tanner.build_lift(g, spec))
    assert p.values == (Fraction(1), Fraction(1), Fraction(1))


def test_reduce_degree_one_is_identity():
    g = triangle_cycle_graph()
    spec = identity_lift(g, 1)
    p = tanner.reduce_cover_codeword([1, 1, 1], g, tanner.build_lift(g, spec))
    assert p.values == (Fraction(1), Fraction(1), Fraction(1))
    assert p.certificate == "cover-degree-1"


def test_reduce_fractional_point():
    # Identity degree-2 cover of the triangle is two disjoint triangles;
    # filling one of them averages to 1/2 everywhere.
    g = triangle_cycle_graph()
    spec = identity_lift(g, 2)
    word = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
    p = tanner.reduce_cover_codeword(word, g, tanner.build_lift(g, spec))
    assert p.values == (Fraction(1, 2),) * 3


def test_reduce_rejects_non_codeword():
    g = triangle_cycle_graph()
    spec = identity_lift(g, 2)
    with pytest.raises(NotACodewordInCover):
        tanner.reduce_cover_codeword([1, 0, 0, 0, 0, 0], g, tanner.build_lift(g, spec))


def test_reduce_rejects_bad_input():
    g = triangle_cycle_graph()
    from expandercodes.errors import LengthMismatch
    cover = tanner.build_lift(g, identity_lift(g, 2))
    with pytest.raises(LengthMismatch):
        tanner.reduce_cover_codeword([1, 1], g, cover)


def test_reduce_refuses_a_graph_that_is_not_a_cover():
    tri = triangle_cycle_graph()
    # the sizes of a degree-2 cover, but check 0 meets both copies of
    # variable 0, and the parity cloud averages then break
    pairs = [(0, 1), (2, 3), (4, 5), (2, 4), (3, 5), (2, 5)]
    rows = np.zeros((6, 6), dtype=np.uint8)
    for r, (a, b) in enumerate(pairs):
        rows[r, [a, b]] = 1
    fake = tanner.from_parity_matrix(BitMatrix(rows))
    with pytest.raises(InconsistentParameters, match="not a degree-2 cover"):
        tanner.reduce_cover_codeword([1, 1, 0, 0, 0, 0], tri, fake)
    # a true cover with a check relabelled is refused too
    spc = tanner.TannerGraph(3, 1, [(0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 0, 2)], [SPC3])
    cover = tanner.build_lift(spc, identity_lift(spc, 2))
    plain = tanner.TannerGraph(cover.n_vars, cover.n_checks, cover.edges)
    with pytest.raises(InconsistentParameters):
        tanner.reduce_cover_codeword([0] * 6, spc, plain)
    assert tanner.reduce_cover_codeword([0] * 6, spc, cover).values == (0, 0, 0)
