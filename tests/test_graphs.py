import numpy as np
import pytest

from expandercodes import graphs
from expandercodes.errors import InfeasibleDegrees, InputError, SimplificationFailed


def test_complete_graph():
    g = graphs.complete(5)
    assert g.n == 5
    assert len(g.edges) == 10
    assert g.regular_degree() == 4
    assert g.is_connected()


def test_cycle_graph():
    g = graphs.cycle(6)
    assert len(g.edges) == 6
    assert g.regular_degree() == 2
    assert sorted(g.neighbors(0)) == [1, 5]


def test_petersen_is_3_regular_girth_5():
    g = graphs.petersen()
    assert g.n == 10 and g.regular_degree() == 3
    a = g.adjacency()
    # no triangles or 4-cycles: diagonal of A^3 zero, A^2 off-diagonal <= 1
    a2 = a @ a
    assert np.trace(a @ a2) == 0
    off = a2 - np.diag(np.diag(a2))
    assert off.max() == 1


def test_prism_and_cube():
    assert graphs.prism(3).regular_degree() == 3
    assert graphs.prism(4).n == 8
    g = graphs.cube()
    assert g.n == 8 and g.regular_degree() == 3 and len(g.edges) == 12


def test_edge_normalization_rejects_bad_edges():
    with pytest.raises(Exception):
        graphs.Graph(3, ((1, 1),))  # self loop
    with pytest.raises(Exception):
        graphs.Graph(3, ((2, 1),))  # u < v orientation enforced
    with pytest.raises(Exception):
        graphs.Graph(2, ((0, 1), (0, 1)))  # parallel edge


def test_random_regular_properties():
    g = graphs.random_regular(10, 3, seed=0)
    assert g.n == 10
    assert all(d == 3 for d in g.degrees())
    # deterministic per seed
    again = graphs.random_regular(10, 3, seed=0)
    assert g.edges == again.edges
    other = graphs.random_regular(10, 3, seed=1)
    assert g.edges != other.edges


def test_random_regular_rejects_odd_total_degree():
    with pytest.raises(InfeasibleDegrees):
        graphs.random_regular(5, 3, seed=0)


def test_random_regular_impossible_degree():
    with pytest.raises((InfeasibleDegrees, SimplificationFailed)):
        graphs.random_regular(4, 5, seed=0)


def test_random_biregular_degrees():
    bg = graphs.random_biregular(6, 2, 3, seed=0)
    assert bg.n_left == 6 and bg.n_right == 4
    assert all(d == 2 for d in bg.left_degrees())
    assert all(d == 3 for d in bg.right_degrees())
    assert bg.edges == graphs.random_biregular(6, 2, 3, seed=0).edges


def test_random_biregular_divisibility():
    with pytest.raises(InfeasibleDegrees):
        graphs.random_biregular(5, 3, 4, seed=0)


def test_complete_bipartite():
    bg = graphs.complete_bipartite(2, 3)
    assert len(bg.edges) == 6
    assert bg.biregular_degrees() == (3, 2)


def edge_list_text(g):
    """One "u v" line per edge: the input format of both edge-list parsers."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def test_edge_list_round_trip():
    g = graphs.petersen()
    again = graphs.parse_edge_list(edge_list_text(g))
    assert again.n == g.n and set(again.edges) == set(g.edges)


def test_bipartite_edge_list_round_trip():
    bg = graphs.random_biregular(4, 2, 2, seed=3)
    again = graphs.parse_bipartite_edge_list(edge_list_text(bg))
    assert (again.n_left, again.n_right) == (bg.n_left, bg.n_right)
    assert set(again.edges) == set(bg.edges)


def test_named_graph():
    assert graphs.named_graph("k4").n == 4
    assert graphs.named_graph("c5").n == 5
    assert graphs.named_graph("petersen").n == 10
    bg = graphs.named_graph("k2,3")
    assert (bg.n_left, bg.n_right) == (2, 3)
    with pytest.raises(InputError):
        graphs.named_graph("dodecahedron")
