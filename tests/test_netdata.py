import io

import numpy as np
import pytest

from hetnet import (
    AttributeMatrix,
    CountNetwork,
    NetworkDataError,
    load_attributes,
    load_edge_list,
    write_attributes,
    write_edge_list,
)


# ------------------------------------------------------------ CountNetwork

def test_two_node_network_degrees():
    net = CountNetwork.from_edges(2, [(0, 1, 3), (1, 0, 1)])
    assert net.n == 2
    assert net.out_degree.tolist() == [3, 1]
    assert net.in_degree.tolist() == [1, 3]
    assert net.total_count == 4


def test_duplicate_pairs_are_summed():
    net = CountNetwork.from_edges(2, [(0, 1, 2), (0, 1, 5)])
    assert list(net.edges()) == [(0, 1, 7)]


def test_zero_count_pairs_dropped():
    net = CountNetwork.from_edges(3, [(0, 1, 0), (1, 2, 4)])
    assert list(net.edges()) == [(1, 2, 4)]


def test_self_loop_rejected():
    with pytest.raises(NetworkDataError, match="self-loop"):
        CountNetwork.from_edges(3, [(2, 2, 1)])


def test_negative_count_rejected():
    with pytest.raises(NetworkDataError, match="negative count"):
        CountNetwork.from_edges(2, [(0, 1, -1)])


def test_out_of_range_rejected():
    with pytest.raises(NetworkDataError, match="outside declared range"):
        CountNetwork.from_edges(2, [(0, 5, 1)])


def test_edges_sorted_by_src_then_dst():
    net = CountNetwork.from_edges(3, [(2, 0, 1), (0, 2, 1), (0, 1, 1)])
    assert list(net.edges()) == [(0, 1, 1), (0, 2, 1), (2, 0, 1)]


def test_arrays_read_only():
    net = CountNetwork.from_edges(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        net.count[0] = 99
    with pytest.raises(ValueError):
        net.out_degree[0] = 99


# ------------------------------------------------------ cached degrees

def test_degrees_empty_graph():
    net = CountNetwork.from_edges(3, [])
    out, inn = net.out_degree, net.in_degree
    assert out.tolist() == [0, 0, 0]
    assert inn.tolist() == [0, 0, 0]


def test_degrees_direct_sum():
    net = CountNetwork.from_edges(3, [(0, 1, 4), (2, 1, 6)])
    out, inn = net.out_degree, net.in_degree
    assert out.tolist() == [4, 0, 6]
    assert inn.tolist() == [0, 10, 0]


def test_degrees_cycle():
    net = CountNetwork.from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    out, inn = net.out_degree, net.in_degree
    assert out.tolist() == [1, 1, 1]
    assert inn.tolist() == [1, 1, 1]


# --------------------------------------------------------- AttributeMatrix

def test_attribute_matrix_basic():
    x = AttributeMatrix(np.zeros((2, 3)))
    assert x.n == 2
    assert x.p == 3
    assert x.names == ("x1", "x2", "x3")


def test_attribute_matrix_rejects_nan():
    with pytest.raises(NetworkDataError, match="non-finite"):
        AttributeMatrix(np.array([[0.0, float("nan")]]))


def test_attribute_matrix_name_count_checked():
    with pytest.raises(NetworkDataError):
        AttributeMatrix(np.zeros((2, 3)), names=("a", "b"))


def test_attribute_values_read_only():
    x = AttributeMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        x.values[0, 0] = 5.0


# ----------------------------------------------------------- edge list IO

def test_load_edge_list_basic():
    net = load_edge_list(io.StringIO("src,dst,count\n0,1,3\n1,0,1\n"))
    assert net.n == 2
    assert net.out_degree.tolist() == [3, 1]


def test_load_edge_list_declared_n():
    net = load_edge_list(io.StringIO("src,dst,count\n0,1,1\n"), n=5)
    assert net.n == 5
    assert net.out_degree.tolist() == [1, 0, 0, 0, 0]


def test_load_edge_list_bad_header():
    with pytest.raises(NetworkDataError, match="src,dst,count"):
        load_edge_list(io.StringIO("from,to,w\n0,1,1\n"))


def test_load_edge_list_reports_line_numbers():
    with pytest.raises(NetworkDataError, match="line 3"):
        load_edge_list(io.StringIO("src,dst,count\n0,1,1\n0,0,2\n"))
    with pytest.raises(NetworkDataError, match="line 2.*non-integer"):
        load_edge_list(io.StringIO("src,dst,count\nx,1,1\n"))


def test_load_edge_list_declared_range_enforced():
    with pytest.raises(NetworkDataError, match="declared range"):
        load_edge_list(io.StringIO("src,dst,count\n0,7,1\n"), n=3)


def test_load_edge_list_empty_needs_n():
    with pytest.raises(NetworkDataError, match="no rows"):
        load_edge_list(io.StringIO("src,dst,count\n"))
    net = load_edge_list(io.StringIO("src,dst,count\n"), n=4)
    assert net.n == 4
    assert net.total_count == 0


def test_edge_list_round_trip():
    net = CountNetwork.from_edges(4, [(0, 3, 2), (3, 1, 9), (1, 0, 1)])
    buf = io.StringIO()
    write_edge_list(net, buf)
    again = load_edge_list(io.StringIO(buf.getvalue()), n=4)
    assert list(again.edges()) == list(net.edges())
    # writing again must be byte-identical
    buf2 = io.StringIO()
    write_edge_list(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


# ---------------------------------------------------------- attributes IO

def test_load_attributes_zeros():
    x = load_attributes(io.StringIO("x1,x2,x3\n0,0,0\n0,0,0\n"))
    assert x.values.shape == (2, 3)
    assert np.all(x.values == 0.0)


def test_load_attributes_bad_cell_names_row_and_column():
    with pytest.raises(NetworkDataError, match="line 3.*column x2.*'abc'"):
        load_attributes(io.StringIO("x1,x2\n1,2\n3,abc\n"))


def test_load_attributes_no_rows():
    with pytest.raises(NetworkDataError, match="no (data )?rows"):
        load_attributes(io.StringIO("x1,x2\n"))


def test_load_attributes_ragged():
    with pytest.raises(NetworkDataError, match="ragged"):
        load_attributes(io.StringIO("x1,x2\n1,2\n3\n"))


def test_load_attributes_rejects_inf():
    with pytest.raises(NetworkDataError, match="non-finite"):
        load_attributes(io.StringIO("x1\ninf\n"))


def test_attributes_round_trip_exact():
    rows = np.array([[0.1, -2.5e-7], [1.0 / 3.0, 4.0]])
    x = AttributeMatrix(rows, names=("u", "v"))
    buf = io.StringIO()
    write_attributes(x, buf)
    again = load_attributes(io.StringIO(buf.getvalue()))
    assert again.names == ("u", "v")
    # repr round-trips float64 exactly
    assert np.array_equal(again.values, rows)
