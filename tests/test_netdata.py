import csv
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hetnet.netdata as netdata_mod
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


@pytest.mark.parametrize("count", [2**53 + 1, 2**63 - 1])
def test_degrees_exact_past_float64(count):
    # degrees are summed in int64: a float64 sum would round 2**53 + 1
    # down and turn 2**63 - 1 into an invalid cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = CountNetwork.from_edges(3, [(1, 2, count)])
    assert net.out_degree.tolist() == [0, count, 0]
    assert net.in_degree.tolist() == [0, 0, count]
    assert net.out_degree.dtype == np.int64 and net.in_degree.dtype == np.int64


def test_degrees_sum_counts_of_many_edges_exactly():
    net = CountNetwork.from_edges(4, [(0, 1, 2**53), (0, 2, 1), (3, 2, 2**53)])
    assert net.out_degree.tolist() == [2**53 + 1, 0, 0, 2**53]
    assert net.in_degree.tolist() == [0, 2**53, 2**53 + 1, 0]


@pytest.mark.parametrize("n", [3037000500, 2**63, 2**64])
def test_node_count_whose_pair_keys_overflow_is_a_data_error(n):
    # src * n + dst keys must fit in int64; isqrt(2**63 - 1) = 3037000499
    with pytest.raises(NetworkDataError, match="too large"):
        CountNetwork.from_edges(n, [(0, 1, 1)])


def test_inferred_huge_node_count_is_a_data_error(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(f"src,dst,count\n0,{2**63 - 1},1\n")
    with pytest.raises(NetworkDataError, match="too large"):
        load_edge_list(path)


# ------------------------------------------------------ array edge path

def _dict_merge_reference(n, edges):
    """The tuple-and-dict builder that from_edges replaced, kept verbatim."""
    acc: dict[tuple[int, int], int] = {}
    for s, d, c in edges:
        s, d, c = int(s), int(d), int(c)
        if s == d:
            raise NetworkDataError(f"self-loop ({s},{d}) is not allowed")
        if not (0 <= s < n and 0 <= d < n):
            raise NetworkDataError(
                f"edge ({s},{d}) outside declared range [0, {n})"
            )
        if c < 0:
            raise NetworkDataError(f"negative count {c} on edge ({s},{d})")
        key = (s, d)
        acc[key] = acc.get(key, 0) + c
    keys = sorted(k for k, v in acc.items() if v > 0)
    return [(k[0], k[1], acc[k]) for k in keys]


@st.composite
def _edge_lists(draw, valid=True):
    """(n, triplets) with repeated pairs and zero counts; valid=False also
    draws self-loops, out-of-range indices and negative counts."""
    n = draw(st.integers(1, 8))
    idx = st.integers(0, n - 1) if valid else st.integers(-2, n + 1)
    cnt = st.integers(0, 5) if valid else st.integers(-2, 5)
    edges = draw(st.lists(st.tuples(idx, idx, cnt), max_size=30))
    return n, [e for e in edges if e[0] != e[1]] if valid else edges


def _as_kind(edges, kind):
    if kind == "list":
        return list(edges)
    if kind == "generator":
        return (e for e in edges)
    return np.array(edges, dtype=np.int64).reshape(-1, 3)


_KINDS = st.sampled_from(["list", "generator", "array"])


@settings(max_examples=200, deadline=None)
@given(_edge_lists(), _KINDS)
@example((3, []), "array")
@example((2, [(0, 1, 0), (0, 1, 0)]), "list")
def test_from_edges_matches_dict_merge(case, kind):
    n, edges = case
    want = _dict_merge_reference(n, edges)
    net = CountNetwork.from_edges(n, _as_kind(edges, kind))
    assert list(net.edges()) == want
    for arr in (net.src, net.dst, net.count, net.out_degree, net.in_degree):
        assert arr.dtype == np.int64
    assert net.out_degree.tolist() == [sum(c for s, _, c in want if s == i) for i in range(n)]
    assert net.in_degree.tolist() == [sum(c for _, d, c in want if d == i) for i in range(n)]
    # a network's own edge generator rebuilds it exactly
    assert list(CountNetwork.from_edges(n, net.edges()).edges()) == want


@settings(max_examples=300, deadline=None)
@given(_edge_lists(valid=False), _KINDS)
@example((3, [(0, 1, -1), (2, 2, 1)]), "array")
@example((3, [(0, 5, -1), (1, 1, 1)]), "list")
@example((2, [(7, 7, -3)]), "generator")
def test_from_edges_reports_first_offending_edge(case, kind):
    n, edges = case
    try:
        want = _dict_merge_reference(n, edges)
    except NetworkDataError as exc:
        with pytest.raises(NetworkDataError) as info:
            CountNetwork.from_edges(n, _as_kind(edges, kind))
        assert str(info.value) == str(exc)
    else:
        assert list(CountNetwork.from_edges(n, _as_kind(edges, kind)).edges()) == want


@settings(max_examples=100, deadline=None)
@given(_edge_lists())
def test_edge_list_write_load_is_byte_identical(case):
    n, edges = case
    net = CountNetwork.from_edges(n, edges)
    first = io.StringIO()
    write_edge_list(net, first)
    loads = [load_edge_list(io.StringIO(first.getvalue()), n=n)]
    if net.count.size:
        loads.append(load_edge_list(io.StringIO(first.getvalue())))
    for again in loads:
        assert list(again.edges()) == list(net.edges())
        second = io.StringIO()
        write_edge_list(again, second)
        assert second.getvalue() == first.getvalue()


@pytest.mark.parametrize("loader,good,bad", [
    (load_edge_list, "src,dst,count\n0,1,2\n", "src,dst,count\n0,1\n"),
    (load_attributes, "x1,x2\n1,2\n", "x1,x2\n1\n"),
])
def test_loaders_close_the_files_they_open(tmp_path, monkeypatch, loader, good, bad):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(netdata_mod, "open", recording_open, raising=False)
    path = tmp_path / "in.csv"
    path.write_text(good)
    loader(path)
    path.write_text(bad)
    with pytest.raises(NetworkDataError, match="line 2"):
        loader(str(path))
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)
    # a stream belongs to the caller and stays open
    stream = io.StringIO(good)
    loader(stream)
    assert not stream.closed


def _csv_writer_edge_list(net, stream):
    """write_edge_list as it was on csv.writer, kept as the byte reference."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["src", "dst", "count"])
    for s, d, c in net.edges():
        writer.writerow([s, d, c])


@settings(max_examples=100, deadline=None)
@given(_edge_lists(), st.sampled_from([1, 2, 5, 1 << 16]))
@example((3, [(0, 1, 2 ** 62), (2, 0, 9), (1, 2, 2 ** 53 + 1)]), 2)
@example((2, []), 1)
def test_write_edge_list_matches_csv_writer(case, block_rows):
    n, edges = case
    net = CountNetwork.from_edges(n, edges)
    ref = io.StringIO()
    _csv_writer_edge_list(net, ref)
    buf = io.StringIO()
    with mock.patch.object(netdata_mod, "_WRITE_BLOCK_ROWS", block_rows):
        write_edge_list(net, buf)
    assert buf.getvalue() == ref.getvalue()


# ------------------------------------------- bulk parse and per-line loop

def _per_line_only():
    """Make every bulk parse fail, so the loaders run only their per-line loop."""
    return mock.patch.object(netdata_mod.np, "loadtxt",
                             side_effect=ValueError("bulk parse switched off"))


def _outcome(loader, text, as_path, tmp, **kwargs):
    """What a loader returns for ``text`` (as bytes and names), or its error text."""
    if as_path:
        source = Path(tmp) / "in.csv"
        with open(source, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        source = io.StringIO(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loader(source, **kwargs)
    except NetworkDataError as exc:
        return "error", str(exc)
    if isinstance(got, CountNetwork):
        return got.n, got.src.tobytes(), got.dst.tobytes(), got.count.tobytes()
    return got.names, got.values.shape, got.values.tobytes()


def _both_paths_agree(loader, text, as_path, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        got = _outcome(loader, text, as_path, tmp, **kwargs)
        with _per_line_only():
            want = _outcome(loader, text, as_path, tmp, **kwargs)
    assert got == want


_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _decorate(text, how):
    """A cell that int() or float() reads as ``text`` does, spelled another way."""
    if how == "plus" and not text.startswith("-"):
        return "+" + text
    if how == "zeros":
        return ("-" if text.startswith("-") else "") + "00" + text.lstrip("-")
    if how == "spaces":
        return f" {text}\t"
    if how == "underscore" and len(text.lstrip("-")) > 1 and text[-2].isdigit():
        return text[:-1] + "_" + text[-1]
    if how == "quoted":
        return f'"{text}"'
    if how == "arabic":
        return text.translate(_ARABIC)
    return text


# spellings that np.loadtxt reads as int() and float() do, and the rest
_BULK_SPELLINGS = ["plain"] * 4 + ["plus", "zeros", "spaces"]
_LOOP_SPELLINGS = ["underscore", "quoted", "arabic"]


@st.composite
def _csv_body(draw, cells, clean):
    """Data rows and blank lines; unless ``clean``, also ragged rows and
    whitespace-only and '#' lines.  ``cells`` holds one strategy per column."""
    kinds = ["row"] * 8 + ["blank"] + ([] if clean else ["ragged", "spaces", "hash"])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("row", "ragged"):
            k = len(cells) + (0 if kind == "row" else draw(st.sampled_from([-1, 1])))
            lines.append(",".join(draw(cells[min(j, len(cells) - 1)])
                                  for j in range(max(k, 1))))
        else:
            lines.append({"blank": "", "spaces": " \t ", "hash": "# note"}[kind])
    return lines


def _join(draw, header, lines):
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([header] + lines) + draw(st.sampled_from(["", eol, eol + eol]))


# values past int64 in every column; the largest int64 values only as counts
_PAST_INT64 = [2 ** 63, -2 ** 63 - 1, 10 ** 25]


@st.composite
def _edge_cell(draw, clean, large):
    if clean:
        return _decorate(str(draw(st.integers(0, 12))), draw(st.sampled_from(_BULK_SPELLINGS)))
    value = draw(st.integers(-2, 12) | st.sampled_from(_PAST_INT64 + large))
    how = draw(st.sampled_from(_BULK_SPELLINGS + _LOOP_SPELLINGS + ["float"]))
    return str(value) + ".0" if how == "float" else _decorate(str(value), how)


@st.composite
def _edge_files(draw):
    """Edge CSV text and a declared n; ``clean`` files hold only cells and
    lines that np.loadtxt parses, but may still break the row checks."""
    clean = draw(st.booleans())
    header = draw(st.sampled_from(["src,dst,count"] * 4 + [
        " src , dst,count ", '"src",dst,count', "src,dst", "from,to,count"]))
    index = _edge_cell(clean, [1000])
    body = draw(_csv_body([index, index, _edge_cell(clean, [2 ** 40])], clean))
    return _join(draw, header, body), draw(st.none() | st.integers(1, 14))


@settings(max_examples=400, deadline=None)
@given(case=_edge_files(), as_path=st.booleans())
@example(case=("src,dst,count\n", 4), as_path=False)
@example(case=("src,dst,count\r\n", 4), as_path=True)
@example(case=("src,dst,count\n0,1,2\r\n2, +01 ,3\n\n \n", None), as_path=True)
@example(case=("src,dst,count\n0,1,1\n1,0,9223372036854775808\n", None), as_path=False)
@example(case=("src,dst,count\n0,1,1_000\n", 3), as_path=True)
def test_edge_list_bulk_and_per_line_agree(case, as_path):
    text, n = case
    _both_paths_agree(load_edge_list, text, as_path, n=n)


@st.composite
def _attribute_cell(draw, clean):
    value = draw(st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([0.0, -0.0, 5e-324, 1000.5, 7.25, -3.0]))
    if not clean:
        special = draw(st.sampled_from([None] * 8 + [
            "nan", "inf", "-Infinity", "1e999", "", "1.5.2"]))
        if special is not None:
            return special
    spellings = _BULK_SPELLINGS + ([] if clean else _LOOP_SPELLINGS)
    return _decorate(repr(value), draw(st.sampled_from(spellings)))


@st.composite
def _attribute_files(draw):
    clean = draw(st.booleans())
    names = draw(st.lists(st.text(alphabet='ab1 ,"', min_size=1, max_size=5),
                          min_size=1, max_size=4))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(names)
    body = draw(_csv_body([_attribute_cell(clean)] * len(names), clean))
    return _join(draw, buf.getvalue(), body)


@settings(max_examples=400, deadline=None)
@given(text=_attribute_files(), as_path=st.booleans())
@example(text="x1,x2\n", as_path=True)
@example(text='"a,b", c \r\n1.5,-2\r\n\r\n +3 ,007.25\r\n', as_path=True)
@example(text="x1\n1_000.5\n", as_path=False)
@example(text="x1,x2\nnan,1\n", as_path=False)
@example(text="x1,x2\n1,2\n3\n", as_path=True)
def test_attributes_bulk_and_per_line_agree(text, as_path):
    _both_paths_agree(load_attributes, text, as_path)


def test_clean_files_take_the_bulk_path(tmp_path):
    edges = "src,dst,count\r\n0,1,2\r\n\r\n 2 , +01 ,0003\r\n"
    attrs = " u ,v\r\n1.5, -2e-3\r\n\r\n+7,0.25\r\n"
    loop_off = mock.patch.multiple(netdata_mod, _edge_rows=mock.DEFAULT,
                                   _attribute_rows=mock.DEFAULT)
    for source in (io.StringIO, lambda text: tmp_path / "in.csv"):
        (tmp_path / "in.csv").write_text(edges, newline="")
        with loop_off as loops:
            net = load_edge_list(source(edges), n=3)
        assert not any(loop.called for loop in loops.values())
        assert list(net.edges()) == [(0, 1, 2), (2, 1, 3)]
        (tmp_path / "in.csv").write_text(attrs, newline="")
        with loop_off as loops:
            x = load_attributes(source(attrs))
        assert not any(loop.called for loop in loops.values())
        assert x.names == ("u", "v")
        assert x.values.tolist() == [[1.5, -2e-3], [7.0, 0.25]]


def test_header_only_edge_file_warns_nothing(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,count\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (path, io.StringIO("src,dst,count\n")):
            net = load_edge_list(source, n=3)
            assert net.n == 3
            assert net.total_count == 0


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


def test_load_edge_list_rejects_counts_past_int64():
    with pytest.raises(NetworkDataError, match="line 3.*64 bits"):
        load_edge_list(io.StringIO("src,dst,count\n0,1,1\n1,0,9223372036854775808\n"))


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


def _csv_writer_attributes(x, stream):
    """write_attributes as it was on csv.writer, kept as the byte reference."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(x.names))
    for row in x.values:
        writer.writerow([repr(float(v)) for v in row])


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 1e300,
                -1.7976931348623157e308]


@st.composite
def _attribute_matrices(draw):
    values = draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(_EDGE_FLOATS)))
    # names may need quoting (commas, quotes); the loader strips whitespace
    name = st.text(alphabet='ab1_ ,"', min_size=1, max_size=6).filter(
        lambda s: s == s.strip())
    p = values.shape[1]
    names = draw(st.just(()) | st.lists(name, min_size=p, max_size=p).map(tuple))
    return values, names


@settings(max_examples=200, deadline=None)
@given(matrix=_attribute_matrices())
@example(matrix=(np.array([_EDGE_FLOATS]), ()))
def test_attributes_round_trip_bit_identical(matrix):
    values, names = matrix
    x = AttributeMatrix(values, names=names)
    buf, ref = io.StringIO(), io.StringIO()
    write_attributes(x, buf)
    _csv_writer_attributes(x, ref)
    assert buf.getvalue() == ref.getvalue()
    again = load_attributes(io.StringIO(buf.getvalue()))
    assert again.names == x.names
    assert again.values.shape == values.shape
    assert again.values.tobytes() == values.tobytes()
