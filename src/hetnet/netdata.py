"""Count-valued directed networks with nodal attributes, and CSV ingestion.

A :class:`CountNetwork` stores the edge multiset as parallel int64
arrays (src, dst, count) sorted by (src, dst), with degree vectors cached
at construction.  Edges stay int64 arrays on the way in: the simulator
and the CSV loader hand (m, 3) arrays to :meth:`CountNetwork.from_edges`,
which checks and merges them with whole-array operations.  Self-loops
are rejected: the edge model sums over ordered pairs of distinct nodes
only.  Indices are 0-based everywhere.

Both CSV loaders read a file in one of two ways, with one contract.  The
header goes through ``csv.reader``; the body then streams from the open
file into a single ``np.loadtxt`` call, and the result gets the row
checks as whole-array operations.  Only if that bulk parse fails (it
raises, warns, or a check fails) is the file read again from the top by
the per-line loop.  That loop is the one source of line-numbered
:class:`NetworkDataError` messages, and it also accepts what ``int``,
``float`` and ``csv`` accept beyond ``np.loadtxt``: quoted fields,
``1_000``, non-ASCII digits, whitespace-only lines.  Either way a file
gives the same arrays, or the same error.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "CountNetwork",
    "AttributeMatrix",
    "NetworkDataError",
    "load_edge_list",
    "load_attributes",
    "write_edge_list",
    "write_attributes",
]


# rows of edge-list text that write_edge_list builds per write call
_WRITE_BLOCK_ROWS = 1 << 16
# the largest n whose src * n + dst pair keys fit in int64
_MAX_NODES = math.isqrt(2**63 - 1)


class NetworkDataError(ValueError):
    """Malformed network or attribute input."""


@dataclass(frozen=True)
class CountNetwork:
    """Directed multigraph with non-negative integer edge counts.

    Attributes
    ----------
    n : int
        Number of nodes.
    src, dst : int64 arrays
        Edge endpoints, parallel arrays sorted by (src, dst), src != dst.
    count : int64 array
        Positive count per stored edge (zero-count pairs are not stored).
    out_degree, in_degree : int64 arrays, length n
        Cached row/column sums of the adjacency matrix.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray
    out_degree: np.ndarray = field(repr=False)
    in_degree: np.ndarray = field(repr=False)

    @staticmethod
    def from_edges(n: int, edges) -> "CountNetwork":
        """Build from (src, dst, count) triplets: an (m, 3) array or an iterable.

        Duplicate (src, dst) pairs are summed; zero-count results are
        dropped.  Raises :class:`NetworkDataError` on self-loops, negative
        counts, or out-of-range indices, naming the first offending edge,
        and on an n whose n*n overflows int64.
        """
        if n < 1:
            raise NetworkDataError(f"node count must be >= 1, got {n}")
        if n > _MAX_NODES:
            raise NetworkDataError(
                f"node count {n} is too large: n*n must fit in a 64-bit integer"
            )
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 3)
        s, d, c = e.T
        bad = (s == d) | (s < 0) | (s >= n) | (d < 0) | (d >= n) | (c < 0)
        if bad.any():
            s, d, c = e[bad.argmax()].tolist()
            if s == d:
                raise NetworkDataError(f"self-loop ({s},{d}) is not allowed")
            if not (0 <= s < n and 0 <= d < n):
                raise NetworkDataError(
                    f"edge ({s},{d}) outside declared range [0, {n})"
                )
            raise NetworkDataError(f"negative count {c} on edge ({s},{d})")
        # one int64 key per pair, ordered as (src, dst); sums stay exact
        keys, slot = np.unique(s * n + d, return_inverse=True)
        total = np.zeros(keys.size, dtype=np.int64)
        np.add.at(total, slot, c)
        live = total > 0
        src, dst = np.divmod(keys[live], n)
        cnt = total[live]
        # int64 sums: float64 weights would round counts above 2**53
        out_deg = np.zeros(n, dtype=np.int64)
        np.add.at(out_deg, src, cnt)
        in_deg = np.zeros(n, dtype=np.int64)
        np.add.at(in_deg, dst, cnt)
        net = CountNetwork(n, src, dst, cnt, out_deg, in_deg)
        for arr in (net.src, net.dst, net.count, net.out_degree, net.in_degree):
            arr.setflags(write=False)
        return net

    @property
    def total_count(self) -> int:
        return int(self.count.sum())

    def edges(self):
        """Iterate (src, dst, count) triplets in sorted order."""
        return zip(self.src.tolist(), self.dst.tolist(), self.count.tolist())


@dataclass(frozen=True)
class AttributeMatrix:
    """n x p matrix of finite real nodal attributes, one row per node."""

    values: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise NetworkDataError("attribute matrix must be 2-dimensional")
        if not np.all(np.isfinite(values)):
            raise NetworkDataError("attribute matrix contains non-finite entries")
        object.__setattr__(self, "values", values)
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"x{j + 1}" for j in range(values.shape[1]))
            )
        elif len(self.names) != values.shape[1]:
            raise NetworkDataError("attribute names do not match column count")
        values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@contextlib.contextmanager
def _rewindable_lines(source):
    """Yield ``restart``: each call returns the text lines of ``source`` from the top.

    A path is opened here, rewound by seeking and closed on exit.  A
    caller's stream is read once into a list of its own lines (the
    caller's line splitting is kept) and is not closed.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            def restart():
                fh.seek(0)
                return fh
            yield restart
    elif hasattr(source, "read"):
        lines = list(source)
        yield lambda: iter(lines)
    else:
        raise TypeError(f"cannot read from {type(source).__name__}")


def _read_csv(source, read_header, dtype, accept, per_line):
    """Return ``(header, body)`` of a CSV file: a bulk parse, else the per-line loop.

    ``read_header`` takes a ``csv.reader`` and returns the checked
    header.  The body then streams from the open file into one
    ``np.loadtxt`` call.  If that raises or warns (an empty body warns),
    or ``accept(body, header)`` is false, the input is read again from the
    top and ``per_line(reader, header)`` builds the body, or raises the
    line-numbered error.
    """
    with _rewindable_lines(source) as restart:
        lines = restart()
        header = read_header(csv.reader(lines))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                body = np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=2,
                                  comments=None)
        except (ValueError, OverflowError, Warning):
            body = None
        if body is None or not accept(body, header):
            reader = csv.reader(restart())
            read_header(reader)
            body = per_line(reader, header)
    return header, body


def _edge_header(reader):
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["src", "dst", "count"]:
        raise NetworkDataError(f"expected header 'src,dst,count', got {header!r}")
    return header


def _edge_rows(reader, n):
    """The per-line edge loop: each row parsed by ``int`` and checked in turn."""
    flat = array("q")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise NetworkDataError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            s, d, c = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise NetworkDataError(f"line {lineno}: non-integer field ({exc})") from None
        if s == d:
            raise NetworkDataError(f"line {lineno}: self-loop ({s},{d})")
        if s < 0 or d < 0:
            raise NetworkDataError(f"line {lineno}: negative index")
        if c < 0:
            raise NetworkDataError(f"line {lineno}: negative count {c}")
        if n is not None and (s >= n or d >= n):
            raise NetworkDataError(
                f"line {lineno}: index out of declared range [0, {n})"
            )
        try:
            flat.extend((s, d, c))
        except OverflowError:
            raise NetworkDataError(f"line {lineno}: field exceeds 64 bits") from None
    return np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)


def _edges_pass(edges, n) -> bool:
    """The per-line loop's row checks, on a whole bulk-parsed array."""
    if edges.shape[1] != 3:
        return False
    s, d, c = edges.T
    bad = (s == d) | (s < 0) | (d < 0) | (c < 0)
    if n is not None:
        bad |= (s >= n) | (d >= n)
    return not bad.any()


def load_edge_list(source, n: int | None = None) -> CountNetwork:
    """Load an edge list CSV with header ``src,dst,count``.

    Indices are 0-based.  Duplicate (src, dst) rows are summed.  If ``n``
    is given, indices must lie in [0, n); otherwise the node count is
    inferred as one past the largest index seen.

    The body is parsed in bulk by ``np.loadtxt`` and checked as whole
    arrays; only if that fails does the per-line loop read the file again,
    giving the same edges or the error naming the first bad line.
    """
    _, edges = _read_csv(source, _edge_header, np.int64,
                         lambda e, _: _edges_pass(e, n),
                         lambda reader, _: _edge_rows(reader, n))
    if n is None:
        if not edges.size:
            raise NetworkDataError("edge list has no rows and no declared node count")
        n = int(edges[:, :2].max()) + 1
    return CountNetwork.from_edges(n, edges)


def _attribute_header(reader):
    header = next(reader, None)
    if not header:
        raise NetworkDataError("attribute file is empty (missing header)")
    return tuple(h.strip() for h in header)


def _attribute_rows(reader, names):
    """The per-line attribute loop: each cell parsed by ``float`` and checked."""
    p = len(names)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != p:
            raise NetworkDataError(
                f"line {lineno}: expected {p} fields, got {len(row)} (ragged row)"
            )
        parsed = []
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise NetworkDataError(
                    f"line {lineno}, column {names[j]}: non-numeric cell {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise NetworkDataError(
                    f"line {lineno}, column {names[j]}: non-finite cell {cell!r}"
                )
            parsed.append(v)
        rows.append(parsed)
    if not rows:
        raise NetworkDataError("attribute file has no data rows")
    return np.array(rows, dtype=np.float64)


def load_attributes(source) -> AttributeMatrix:
    """Load a nodal attribute CSV with header ``x1,...,xp``.

    One row per node in node-index order; every cell must parse as a
    finite real number.  The body is parsed in bulk by ``np.loadtxt`` and
    checked as a whole array; only if that fails does the per-line loop
    read the file again, giving the same values or the error naming the
    first bad line and column.
    """
    names, values = _read_csv(
        source, _attribute_header, np.float64,
        lambda v, names: v.shape[1] == len(names) and bool(np.isfinite(v).all()),
        _attribute_rows)
    return AttributeMatrix(values, names)


def write_edge_list(net: CountNetwork, stream) -> None:
    """Write ``src,dst,count`` CSV (LF newlines); inverse of load_edge_list."""
    csv.writer(stream, lineterminator="\n").writerow(["src", "dst", "count"])
    # an int holds no comma, quote or newline, so it needs no CSV quoting;
    # one join per block of rows keeps the text of all rows out of memory
    for lo in range(0, net.count.size, _WRITE_BLOCK_ROWS):
        block = slice(lo, lo + _WRITE_BLOCK_ROWS)
        stream.write("".join(f"{s},{d},{c}\n" for s, d, c in zip(
            net.src[block].tolist(), net.dst[block].tolist(), net.count[block].tolist())))


def write_attributes(x: AttributeMatrix, stream) -> None:
    """Write attribute CSV with full-precision floats (LF newlines)."""
    csv.writer(stream, lineterminator="\n").writerow(list(x.names))
    # a float repr holds no comma, quote or newline, so it needs no CSV quoting
    for row in x.values.tolist():
        stream.write(",".join(map(repr, row)) + "\n")
