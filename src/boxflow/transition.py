"""Box transition graphs: outer approximations of a fixed-time flow map.

Every box is sampled on a small lattice.  Boxes that share a face share
sample points, so each distinct point is advanced by the map time once,
and each image point is inflated to a box of radius padding in the max
norm.  Every grid box touching an inflated image becomes a target of the
source box.  Sample points whose orbit leaves the closed domain produce an
edge to the synthetic EXIT node instead.

Every graph question (cycles, reachability, invariant parts) is answered by
scipy's csgraph on the CSR matrix that TransitionGraph.restricted builds
for a box set.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import CapacityError, PreconditionError
from .flows import _advance
from .grid import MAX_PAIRS, BoxGrid, BoxSet
from .jsonio import load_json, number, positive, write_json

EXIT = -1


class TransitionGraph:
    """A directed graph over grid boxes plus an optional EXIT node.

    Edges are stored as parallel sorted arrays (src, dst) with dst == EXIT
    marking escape from the domain.
    """

    def __init__(self, grid, map_time, padding, samples_per_axis, src, dst):
        self.grid = grid
        self.map_time = float(map_time)
        self.padding = float(padding)
        self.samples_per_axis = int(samples_per_axis)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise PreconditionError("edge arrays must have matching length")
        # sort in place, then drop repeats: np.unique's hash-table path is
        # about ten times slower on the millions of pairs a graph build makes
        key = src * np.int64(grid.n_boxes + 1)
        key += dst + 1
        key.sort()
        keep = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        self._src = key // (grid.n_boxes + 1)
        self._dst = key % (grid.n_boxes + 1) - 1
        self._starts = np.searchsorted(self._src, np.arange(grid.n_boxes + 1))
        self._rev = None

    @property
    def n_edges(self):
        return int(self._src.size)

    @property
    def has_exit(self):
        return bool((self._dst == EXIT).any())

    def edge_arrays(self):
        """The (src, dst) edge arrays, sorted by source then target."""
        return self._src, self._dst

    def targets_of(self, box):
        """Sorted targets of one box; may start with EXIT."""
        return self._dst[self._starts[box]:self._starts[box + 1]]

    def _reverse(self):
        if self._rev is None:
            order = np.argsort(self._dst, kind="stable")
            rsrc = self._dst[order]
            rdst = self._src[order]
            starts = np.searchsorted(rsrc, np.arange(self.grid.n_boxes + 1))
            self._rev = (rdst, starts)
        return self._rev

    def sources_of(self, box):
        """Sorted boxes with an edge into the given box."""
        rdst, starts = self._reverse()
        return np.sort(rdst[starts[box]:starts[box + 1]])

    def restricted(self, boxes):
        """The graph on a box set as a local CSR adjacency matrix.

        Row and column i stand for boxes.ids[i].  EXIT edges and edges
        leaving the set are dropped.
        """
        n = len(boxes)
        # the extra last slot maps EXIT (-1) and boxes outside the set to -1
        local = np.full(self.grid.n_boxes + 1, -1, dtype=np.int64)
        local[boxes.ids] = np.arange(n)
        ls = local[self._src]
        ld = local[self._dst]
        keep = (ls >= 0) & (ld >= 0)
        ls = ls[keep]
        indptr = np.searchsorted(ls, np.arange(n + 1))
        return csr_matrix((np.ones(ls.size), ld[keep], indptr), shape=(n, n))

    def __eq__(self, other):
        if not isinstance(other, TransitionGraph):
            return NotImplemented
        return (self.grid == other.grid
                and self.map_time == other.map_time
                and self.padding == other.padding
                and self.samples_per_axis == other.samples_per_axis
                and np.array_equal(self._src, other._src)
                and np.array_equal(self._dst, other._dst))

    def __repr__(self):
        return (f"TransitionGraph({self.grid.n_boxes} boxes, {self.n_edges} edges, "
                f"map_time={self.map_time})")

    def to_json(self, path):
        # one tolist of all targets, sliced per box with an edge
        dst = self._dst.tolist()
        starts = self._starts.tolist()
        edges = [[b, dst[starts[b]:starts[b + 1]]]
                 for b in np.flatnonzero(np.diff(self._starts)).tolist()]
        data = {
            "map_time": self.map_time,
            "padding": self.padding,
            "samples_per_axis": self.samples_per_axis,
            "grid": self.grid.to_dict(),
            "edges": edges,
            "exit_node": self.has_exit,
        }
        write_json(path, data)

    @classmethod
    def from_json(cls, path):
        def parse(data, where):
            grid = BoxGrid.from_dict(data["grid"], where)
            src = []
            dst = []
            for b, targets in data["edges"]:
                src.extend([b] * len(targets))
                dst.extend(targets)
            return cls(grid, positive(data["map_time"], f"{where} map_time"),
                       number(data["padding"], f"{where} padding"),
                       positive(data["samples_per_axis"], f"{where} samples_per_axis", int),
                       grid.ingest_ids(src, f"{where} sources"),
                       grid.ingest_ids(dst, f"{where} targets", low=EXIT))
        return load_json(path, "graph file", parse)

    def to_dot(self):
        head = "digraph transition {\n"
        if self.has_exit:
            head += '  exit [label="EXIT", shape=doublecircle];\n'
        # one % format over every (src, dst) pair; box ids are nonnegative,
        # so "b-1" can only be an EXIT target
        pairs = np.column_stack([self._src, self._dst]).ravel().tolist()
        body = ("  b%d -> b%d;\n" * self.n_edges) % tuple(pairs)
        return head + body.replace(f" -> b{EXIT};", " -> exit;") + "}"


def _image_pairs(system, grid, ids, map_time, padding, samples_per_axis):
    """Edges (src, dst) from sampling the flow on the given boxes.

    Boxes that share a face share lattice points.  Each bitwise-distinct
    point is marched once, its padded target range is found once, and both
    are gathered back to every box it samples.  Points are merged only when
    their bits are equal, never within a tolerance, so the graph is the one
    a march of every lattice point gives.
    """
    pts = grid.lattice(ids, samples_per_axis)
    src_of_pt = np.repeat(ids, samples_per_axis ** grid.dimension)
    rows = pts.view(np.dtype((np.void, pts.itemsize * grid.dimension))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    img, escaped, _ = _advance(system, pts[first], map_time)

    # each image covers the boxes corner + off for 0 <= off <= ext per axis
    lo = grid.domain[:, 0]
    top = np.array(grid.shape, dtype=np.int64) - 1
    # clipped while still floats: a huge padding would not survive the cast
    low = np.clip(np.floor((img - padding - lo) / grid.widths), 0, top).astype(np.int64)
    high = np.clip(np.floor((img + padding - lo) / grid.widths), 0, top).astype(np.int64)
    corner = grid.ravel(low)
    ext = high - low
    targets = np.where(escaped, 0, np.prod(ext + 1, axis=1))
    n_pairs = int(np.bincount(inverse, minlength=first.size) @ targets)
    if n_pairs > MAX_PAIRS:
        raise CapacityError(
            f"padding {padding:g} gives {n_pairs} (sample, target box) pairs, "
            f"limit is {MAX_PAIRS}")

    escaped = escaped[inverse]
    exits = np.unique(src_of_pt[escaped])
    src = np.empty(exits.size + n_pairs, dtype=np.int64)
    dst = np.empty_like(src)
    src[:exits.size] = exits
    dst[:exits.size] = EXIT
    filled = exits.size

    live = inverse[~escaped]
    if live.size:
        src_live = src_of_pt[~escaped]
        corner = corner[live]
        ext = ext[live]
        for off in itertools.product(*(range(int(e) + 1) for e in ext.max(axis=0))):
            valid = (ext >= off).all(axis=1)
            k = np.count_nonzero(valid)
            src[filled:filled + k] = src_live[valid]
            dst[filled:filled + k] = corner[valid] + grid.ravel(off)
            filled += k
    return src[:filled], dst[:filled]


def _checked_padding(system, grid, map_time, padding):
    """The padding of a graph build, by default half the box diagonal,
    rescaled by the widest side when its plain norm overflows."""
    if map_time < system.step:
        raise PreconditionError(
            f"map_time must be at least one integrator step ({system.step}), got {map_time}")
    if padding is None:
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = float(np.linalg.norm(grid.widths))
            if not math.isfinite(diagonal):
                side = float(grid.widths.max())
                diagonal = side * float(np.linalg.norm(grid.widths / side))
        padding = 0.5 * diagonal
    if padding < 0:
        raise PreconditionError(f"padding must be nonnegative, got {padding}")
    if not math.isfinite(padding):
        raise CapacityError(f"padding {padding} is not finite: the boxes are too wide")
    return padding


def build_transition_graph(system, grid, map_time, padding=None, samples_per_axis=3):
    """Sample the time map on every box and assemble the transition graph.

    padding defaults to half the box diagonal, which makes the edge set an
    outer approximation of the true time map for modestly curved flows.
    """
    padding = _checked_padding(system, grid, map_time, padding)
    ids = np.arange(grid.n_boxes, dtype=np.int64)
    src, dst = _image_pairs(system, grid, ids, map_time, padding, samples_per_axis)
    return TransitionGraph(grid, map_time, padding, samples_per_axis, src, dst)


def box_image(system, grid, box, map_time, padding=None, samples_per_axis=3):
    """The target boxes of a single box, as a BoxSet; may include EXIT."""
    padding = _checked_padding(system, grid, map_time, padding)
    ids = np.asarray([box], dtype=np.int64)
    _, dst = _image_pairs(system, grid, ids, map_time, padding, samples_per_axis)
    return BoxSet(dst)


class InvariantPart(NamedTuple):
    boxes: BoxSet
    isolated: bool


def on_cycle(adj):
    """Nodes of a local adjacency matrix that lie on a cycle.

    A node is on a cycle when its strongly connected component has more
    than one node or it has a self-loop.
    """
    _, labels = connected_components(adj, directed=True, connection="strong")
    return (np.bincount(labels)[labels] > 1) | (adj.diagonal() != 0)


def reachable(adj, seeds):
    """Mask of the nodes reachable from any seed node, seeds included.

    One breadth-first search runs from a super-source row appended to the
    CSR matrix, with an edge to every seed of the boolean seed mask.
    """
    adj = adj.tocsr()
    n = adj.shape[0]
    heads = np.flatnonzero(seeds)
    indptr = np.append(adj.indptr, adj.indptr[-1] + heads.size)
    indices = np.concatenate([adj.indices, heads])
    fanned = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1))
    hit = np.zeros(n + 1, dtype=bool)
    hit[breadth_first_order(fanned, n, directed=True, return_predecessors=False)] = True
    return hit[:n]


def _peel(graph, boxes, require_in, require_out):
    """Boxes of the set carrying a full orbit inside the set.

    With both requirements this is the combinatorial invariant part; with
    only one it is the boxes carrying a full backward (require_in) or
    forward (require_out) orbit.  In a finite set a box has a full backward
    orbit exactly when a cycle of the set reaches it, and a full forward
    orbit exactly when it reaches a cycle.  EXIT edges never count.
    """
    adj = graph.restricted(boxes)
    cyclic = on_cycle(adj)
    keep = np.ones(len(boxes), dtype=bool)
    if require_in:
        keep &= reachable(adj, cyclic)
    if require_out:
        keep &= reachable(adj.T, cyclic)
    return BoxSet(boxes.ids[keep])


def invariant_part(graph, boxes):
    """The maximal subgraph of a box set where every box lies on a full orbit.

    These are the boxes that a cycle of the set reaches and that reach one;
    each has at least one predecessor and at least one successor inside the
    result, and EXIT edges never count.
    The isolated flag records whether the survivors stay clear of the box
    set's boundary layer, grid edge included.
    """
    inv = _peel(graph, boxes, require_in=True, require_out=True)
    isolated = inv.isdisjoint(graph.grid.boundary_layer(boxes))
    return InvariantPart(inv, isolated)
