"""Count-valued directed networks with nodal attributes, and CSV ingestion.

A :class:`CountNetwork` stores the edge multiset as parallel int64
arrays (src, dst, count) sorted by (src, dst), with degree vectors cached
at construction.  Edges stay int64 arrays on the way in: the simulator
and the CSV loader hand (m, 3) arrays to :meth:`CountNetwork.from_edges`,
which checks and merges them with whole-array operations.  Self-loops
are rejected: the edge model sums over ordered pairs of distinct nodes
only.  Indices are 0-based everywhere.
"""

from __future__ import annotations

import contextlib
import csv
import math
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
        counts, or out-of-range indices, naming the first offending edge.
        """
        if n < 1:
            raise NetworkDataError(f"node count must be >= 1, got {n}")
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
        out_deg = np.bincount(src, weights=cnt, minlength=n).astype(np.int64)
        in_deg = np.bincount(dst, weights=cnt, minlength=n).astype(np.int64)
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


def _open_text(source):
    """A path or a text stream, as a context manager; only a path is closed."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if hasattr(source, "read"):
        return contextlib.nullcontext(source)
    raise TypeError(f"cannot read from {type(source).__name__}")


def load_edge_list(source, n: int | None = None) -> CountNetwork:
    """Load an edge list CSV with header ``src,dst,count``.

    Indices are 0-based.  Duplicate (src, dst) rows are summed.  If ``n``
    is given, indices must lie in [0, n); otherwise the node count is
    inferred as one past the largest index seen.
    """
    flat = array("q")
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["src", "dst", "count"]:
            raise NetworkDataError(
                f"expected header 'src,dst,count', got {header!r}"
            )
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
    edges = np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)
    if n is None:
        if not edges.size:
            raise NetworkDataError("edge list has no rows and no declared node count")
        n = int(edges[:, :2].max()) + 1
    return CountNetwork.from_edges(n, edges)


def load_attributes(source) -> AttributeMatrix:
    """Load a nodal attribute CSV with header ``x1,...,xp``.

    One row per node in node-index order; every cell must parse as a
    finite real number.
    """
    rows = []
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if not header:
            raise NetworkDataError("attribute file is empty (missing header)")
        names = tuple(h.strip() for h in header)
        p = len(names)
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
    return AttributeMatrix(np.array(rows, dtype=np.float64), names)


def write_edge_list(net: CountNetwork, stream) -> None:
    """Write ``src,dst,count`` CSV (LF newlines); inverse of load_edge_list."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["src", "dst", "count"])
    for s, d, c in net.edges():
        writer.writerow([s, d, c])


def write_attributes(x: AttributeMatrix, stream) -> None:
    """Write attribute CSV with full-precision floats (LF newlines)."""
    csv.writer(stream, lineterminator="\n").writerow(list(x.names))
    # a float repr holds no comma, quote or newline, so it needs no CSV quoting
    for row in x.values.tolist():
        stream.write(",".join(map(repr, row)) + "\n")
