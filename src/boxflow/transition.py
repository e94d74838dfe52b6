"""Box transition graphs: outer approximations of a fixed-time flow map.

Every box is sampled on a small lattice.  Boxes that share a face share
sample points, so each distinct point is advanced by the map time once,
and each image point is inflated to a box of radius padding in the max
norm.  Every grid box touching an inflated image becomes a target of the
source box.  Sample points whose orbit leaves the closed domain produce an
edge to the synthetic EXIT node instead.

A TransitionGraph is CSR rows over the grid boxes, EXIT first in a row,
and its readers gather only the rows of the boxes they ask about.  Graph
questions (cycles, reachability, invariant parts) are answered in numpy
on the CSR arrays of an Adjacency, which TransitionGraph.restricted reads
off those rows for a box set.  With n nodes and m edges in the set:

- The reverse graph (Adjacency.T) is one plain sort of the m edges packed
  as target * n + source, O(m log m).
- reachable is a breadth-first search, one level per loop: the successors
  of the whole frontier are gathered from the CSR rows at once, so it costs
  O(n + m) plus a fixed numpy overhead per level.
- The invariant part is a trim (Kahn's algorithm on the degree counts):
  drop every node with no successor or no predecessor in the set, and
  touch only the edges of the nodes just dropped, until no node is left to
  drop, in O(n + m) in all.  What is left is the largest subset in which
  every node has both a successor and a predecessor.  In a finite set that
  is exactly the nodes that reach a cycle and are reached from one: a
  path infinite both ways stays in the subset, and a path from a cycle to
  a cycle keeps all its nodes.
- Cycles are a strongly connected component (SCC) pass, forward-backward
  with trimming (Fleischer, Hendrickson and Pinar 2000).  After a trim,
  the SCC of a pivot is the intersection of what it reaches and what
  reaches it; every other SCC lies wholly in the forward-only part, the
  backward-only part or the rest, so those three are split apart and
  handled in the next round, all parts at once.  A round costs
  O(m log m) for the reverse of what is left, plus a numpy overhead per
  search level; the number of rounds is at most the number of SCCs.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, PreconditionError
from .flows import _advance
from .grid import MAX_PAIRS, BoxGrid, BoxSet, checked_count, sorted_unique
from .jsonio import blocks, id_labels, load_json, number, positive, records, write_json

EXIT = -1


def _row_entries(indptr, indices, rows):
    """The entries of the given CSR rows, concatenated, and the indptr that
    splits them back into those rows."""
    lo, hi = indptr[rows], indptr[rows + 1]
    bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(hi - lo, out=bounds[1:])
    pos = np.repeat(lo - bounds[:-1], hi - lo)
    pos += np.arange(pos.size)
    return indices[pos], bounds


def _counted(keep, indptr):
    """The CSR indptr left when only the entries marked in keep stay."""
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[indptr]


class Adjacency:
    """A directed graph on the nodes 0 .. n-1 as CSR arrays.

    The successors of node u are indices[indptr[u]:indptr[u + 1]], in
    increasing order.  T, the reverse graph, is built on first use by one
    plain sort of the edges packed as target * n + source.
    """

    def __init__(self, indptr, indices):
        self.indptr = indptr
        self.indices = indices
        self._T = None

    @property
    def shape(self):
        n = self.indptr.size - 1
        return n, n

    def nonzero(self):
        """The (row, column) arrays of every edge, by row then column."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices

    @property
    def T(self):
        if self._T is None:
            n = self.shape[0]
            rows, cols = self.nonzero()
            key = cols * np.int64(n)
            key += rows
            key.sort()
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
            self._T = Adjacency(indptr, key % n)
        return self._T

    def successors(self, nodes):
        """The successors of the given nodes, concatenated; repeats stay."""
        return _row_entries(self.indptr, self.indices, nodes)[0]


class TransitionGraph:
    """A directed graph over grid boxes plus an optional EXIT node.

    The edges are CSR rows over the grid boxes: the targets of box b are
    _dst[_starts[b]:_starts[b + 1]], in increasing order, so that EXIT,
    which marks escape from the domain, comes first.
    """

    def __init__(self, grid, map_time, padding, samples_per_axis, src, dst):
        src = grid.checked_ids(src, "edge sources")
        dst = grid.checked_ids(dst, "edge targets", low=EXIT)
        if src.shape != dst.shape:
            raise PreconditionError("edge arrays must have matching length")
        keys = src * np.int64(grid.n_boxes + 1)
        keys += dst + 1
        self._adopt(grid, map_time, padding, samples_per_axis, keys)

    @classmethod
    def _from_keys(cls, grid, map_time, padding, samples_per_axis, keys):
        """The graph of the edges packed as box * (n + 1) + target + 1, for
        n grid boxes; keys, which may repeat an edge, is sorted in place."""
        graph = cls.__new__(cls)
        graph._adopt(grid, map_time, padding, samples_per_axis, keys)
        return graph

    def _adopt(self, grid, map_time, padding, samples_per_axis, keys):
        self.grid = grid
        self.map_time = float(map_time)
        self.padding = float(padding)
        self.samples_per_axis = checked_count(samples_per_axis, "samples_per_axis")
        keys = sorted_unique(keys)
        # the keys of box b lie in [b * (n + 1), b * (n + 1) + n]
        n = np.int64(grid.n_boxes)
        self._starts = np.searchsorted(keys, np.arange(n + 1) * (n + 1))
        np.remainder(keys, n + 1, out=keys)
        keys -= 1
        self._dst = keys

    @property
    def n_edges(self):
        return int(self._dst.size)

    @property
    def has_exit(self):
        return bool((self._dst == EXIT).any())

    def edge_arrays(self, boxes=None):
        """The (src, dst) arrays of the edges out of a BoxSet, read from its
        CSR rows, by default every edge; sorted by source then target."""
        ids = np.arange(self.grid.n_boxes) if boxes is None else boxes.ids
        dst, bounds = _row_entries(self._starts, self._dst, ids)
        return np.repeat(ids, np.diff(bounds)), dst

    def targets_of(self, box):
        """Sorted targets of one box; may start with EXIT."""
        (box,) = self.grid.checked_ids([box], "box")
        return self._dst[self._starts[box]:self._starts[box + 1]]

    def restricted(self, boxes):
        """The graph on a box set as a local Adjacency.

        Node i stands for boxes.ids[i].  EXIT edges and edges leaving the
        set are dropped.  Only the rows of the set's boxes are read.
        """
        ids = boxes.ids
        # the extra last slot maps EXIT (-1) and boxes outside the set to -1
        local = np.full(self.grid.n_boxes + 1, -1, dtype=np.int64)
        local[ids] = np.arange(ids.size)
        cols, bounds = _row_entries(self._starts, self._dst, ids)
        cols = local[cols]
        keep = cols >= 0
        return Adjacency(_counted(keep, bounds), cols[keep])

    def __eq__(self, other):
        if not isinstance(other, TransitionGraph):
            return NotImplemented
        return (self.grid == other.grid
                and self.map_time == other.map_time
                and self.padding == other.padding
                and self.samples_per_axis == other.samples_per_axis
                and np.array_equal(self._starts, other._starts)
                and np.array_equal(self._dst, other._dst))

    def __repr__(self):
        return (f"TransitionGraph({self.grid.n_boxes} boxes, {self.n_edges} edges, "
                f"map_time={self.map_time})")

    def to_json(self, path):
        data = {
            "map_time": self.map_time,
            "padding": self.padding,
            "samples_per_axis": self.samples_per_axis,
            "grid": self.grid.to_dict(),
            "edges": self._edges_json(),
            "exit_node": self.has_exit,
        }
        write_json(path, data)

    def _edges_json(self):
        """The edges array "[[b,[t,...]],...]" of graph.json, block by block.

        One record per edge: a comma (but for the first edge) and the
        target, the first edge of a box also opening it with "[b,[" and the
        last closing it with "]]".
        """
        labels = id_labels(self.grid.n_boxes)
        boxes = np.flatnonzero(np.diff(self._starts))
        head = self._starts[boxes]
        tail = self._starts[boxes + 1] - 1
        yield b"["
        for lo, hi in blocks(self.n_edges):
            h = slice(*np.searchsorted(head, (lo, hi)))
            t = slice(*np.searchsorted(tail, (lo, hi)))
            first = head[h] - lo
            yield records(hi - lo, [
                (b",", slice(int(lo == 0), None)), (b"[", first),
                (labels.take(boxes[h], axis=0), first), (b",[", first),
                labels.take(self._dst[lo:hi], axis=0), (b"]]", tail[t] - lo)])
        yield b"]"

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
                       src, dst)
        return load_json(path, "graph file", parse)

    def to_dot(self):
        """The text of graph.dot, without its final newline."""
        return "".join(self._dot_blocks())

    def _dot_blocks(self):
        """The text of to_dot as str blocks of jsonio.BLOCK edges each."""
        head = "digraph transition {\n"
        if self.has_exit:
            head += '  exit [label="EXIT", shape=doublecircle];\n'
        yield head
        # box ids label as b<id>; EXIT, index -1, as exit
        labels = id_labels(self.grid.n_boxes, b"b", b"exit")
        for lo, hi in blocks(self.n_edges):
            src = np.searchsorted(self._starts, np.arange(lo, hi), side="right") - 1
            yield records(hi - lo, [b"  ", labels.take(src, axis=0), b" -> ",
                                    labels.take(self._dst[lo:hi], axis=0), b";\n"]).decode("ascii")
        yield "}"


def _distinct_samples(grid, ids, samples_per_axis):
    """(points, inverse) for the bitwise-distinct lattice points of the
    given boxes: points holds each once, in the row order of np.unique,
    and points[inverse] is grid.lattice(ids, samples_per_axis) bit for bit.

    The lattice itself is never built.  A coordinate on axis k depends only
    on the box's position along k and the sample's fraction, so each axis
    takes at most (positions the boxes use) * samples_per_axis values.  They
    are ranked by value, bitwise-distinct ones apart, and each sample gets
    the mixed-radix code of its ranks, axis 0 most significant: two samples
    are bitwise equal exactly when their codes are.  The distinct codes are
    marked in a dense mask over the code space.  That space is at most
    (product of the positions used per axis) * samples_per_axis**d, which
    is the sample count when the boxes are the whole grid or one box, as
    for the two callers, and at most samples_per_axis**d * MAX_BOXES, so a
    code fits int64.
    """
    d = grid.dimension
    multi = np.unravel_index(ids, grid.shape)
    codes = np.zeros((ids.size,) + (samples_per_axis,) * d, dtype=np.int64)
    values = [None] * d
    space = 1
    for k in reversed(range(d)):
        rows = sorted_unique(multi[k].copy())
        flat = grid.axis_samples(k, rows, samples_per_axis).ravel()
        bits = flat.view(np.uint64)
        order = np.lexsort((bits, flat))
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        np.not_equal(bits[order[1:]], bits[order[:-1]], out=new[1:])
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.cumsum(new) - 1
        values[k] = flat[order[new]]
        shape = [ids.size] + [1] * d
        shape[k + 1] = samples_per_axis
        rank = rank.reshape(rows.size, samples_per_axis) * space
        codes += rank[np.searchsorted(rows, multi[k])].reshape(shape)
        space *= values[k].size
    codes = codes.reshape(-1)
    seen = np.zeros(space, dtype=bool)
    seen[codes] = True
    rank = np.cumsum(seen)
    rank -= 1
    # the inverse, written into the buffer of codes
    inverse = np.take(rank, codes, out=codes, mode="clip")
    distinct = np.flatnonzero(seen)
    del seen, rank
    points = np.empty((distinct.size, d))
    for k in reversed(range(d)):
        distinct, digit = np.divmod(distinct, values[k].size)
        points[:, k] = values[k][digit]
    return points, inverse


def _edge_keys(system, grid, ids, map_time, padding, samples_per_axis):
    """The edges from sampling the flow on the given boxes, each packed as
    box * (n + 1) + target + 1 for n grid boxes, so that EXIT packs as
    box * (n + 1); unsorted, and an edge may repeat.

    Boxes that share a face share lattice points.  Each bitwise-distinct
    point is marched once and its padded target range is found once.
    Points are merged only when their bits are equal, never within a
    tolerance, so the graph is the one a march of every lattice point
    gives.  Samples of one box whose images cover the same range give the
    same targets, so each (box, target range) is expanded once, straight
    into the one key array; the arrays that are dead by then are freed
    first.
    """
    samples_per_axis = checked_count(samples_per_axis, "samples_per_axis")
    per_box = samples_per_axis ** grid.dimension
    pts, inverse = _distinct_samples(grid, ids, samples_per_axis)
    img, escaped, _ = _advance(system, pts, map_time)
    del pts

    # each image covers the boxes corner + off for 0 <= off <= ext per axis
    lo = grid.domain[:, 0]
    top = np.array(grid.shape, dtype=np.int64) - 1
    # clipped while still floats: a huge padding would not survive the cast
    low = np.clip(np.floor((img - padding - lo) / grid.widths), 0, top).astype(np.int64)
    ext = np.clip(np.floor((img + padding - lo) / grid.widths), 0, top).astype(np.int64)
    del img
    ext -= low
    targets = np.where(escaped, 0, np.prod(ext + 1, axis=1))
    n_pairs = int(np.bincount(inverse, minlength=targets.size) @ targets)
    if n_pairs > MAX_PAIRS:
        raise CapacityError(
            f"padding {padding:g} gives {n_pairs} (sample, target box) pairs, "
            f"limit is {MAX_PAIRS}")

    # one key per range, corner * n + ravel(ext), EXIT for an escaped image.
    # corner and ravel(ext) are box ids, each at most n - 1, so a key is at
    # most n**2 - 1 < MAX_BOXES**2 = 2**62 and fits int64
    n = np.int64(grid.n_boxes)
    key = grid.ravel(low)
    key *= n
    key += grid.ravel(ext)
    key[escaped] = EXIT
    del low, ext, escaped, targets
    # the samples are box-major: one row of keys per box, in the buffer of
    # inverse, sorted, so that EXIT comes first and equal ranges are adjacent
    keys = np.take(key, inverse, out=inverse, mode="clip").reshape(ids.size, per_box)
    del key, inverse
    keys.sort(axis=1)
    keep = np.empty(keys.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=keep[:, 1:])
    exits = ids[keys[:, 0] == EXIT]
    keep &= keys != EXIT
    base = np.repeat(ids, np.count_nonzero(keep, axis=1))
    corner, ext = np.divmod(keys[keep], n)
    del keys, keep
    ext = np.unravel_index(ext, grid.shape)
    size = np.ones_like(corner)
    for e in ext:
        size *= e + 1
    # the key of the edge to corner + off is base + ravel(off); a box
    # times n + 1 is below n**2 + n < 2**63
    base *= n + 1
    base += corner
    base += 1
    del corner

    # sized by the distinct ranges; n_pairs counted every sample
    edges = np.empty(exits.size + int(size.sum()), dtype=np.int64)
    np.multiply(exits, n + 1, out=edges[:exits.size])
    filled = exits.size
    valid = np.empty(base.size, dtype=bool)
    for off in itertools.product(*(range(int(e.max(initial=-1)) + 1) for e in ext)):
        np.greater_equal(ext[0], off[0], out=valid)
        for e, o in zip(ext[1:], off[1:]):
            valid &= e >= o
        k = np.count_nonzero(valid)
        np.add(base[valid], grid.ravel(off), out=edges[filled:filled + k])
        filled += k
    return edges


def _checked_padding(system, grid, map_time, padding):
    """The padding of a graph build, by default half the box diagonal.

    A caller's padding must be finite and nonnegative; a default one that
    is not finite raises CapacityError, since the boxes are too wide.
    """
    if map_time < system.step:
        raise PreconditionError(
            f"map_time must be at least one integrator step ({system.step}), got {map_time}")
    if padding is None:
        padding = 0.5 * grid.box_diagonal()
        if not math.isfinite(padding):
            raise CapacityError(f"padding {padding} is not finite: the boxes are too wide")
    elif not 0 <= padding < math.inf:
        raise PreconditionError(f"padding must be finite and nonnegative, got {padding}")
    return padding


def build_transition_graph(system, grid, map_time, padding=None, samples_per_axis=3):
    """Sample the time map on every box and assemble the transition graph.

    padding defaults to half the box diagonal, which makes the edge set an
    outer approximation of the true time map for modestly curved flows.
    """
    padding = _checked_padding(system, grid, map_time, padding)
    ids = np.arange(grid.n_boxes, dtype=np.int64)
    keys = _edge_keys(system, grid, ids, map_time, padding, samples_per_axis)
    return TransitionGraph._from_keys(grid, map_time, padding, samples_per_axis, keys)


def box_image(system, grid, box, map_time, padding=None, samples_per_axis=3):
    """The target boxes of a single box, as a BoxSet; may include EXIT."""
    padding = _checked_padding(system, grid, map_time, padding)
    ids = grid.checked_ids([box], "box")
    keys = _edge_keys(system, grid, ids, map_time, padding, samples_per_axis)
    return BoxSet(keys % (grid.n_boxes + 1) - 1)


class InvariantPart(NamedTuple):
    boxes: BoxSet
    isolated: bool


def _once(nodes, slot):
    """The node array with one copy of each node kept; slot is scratch
    space with one entry per node, left holding the last position written."""
    at = np.arange(nodes.size)
    slot[nodes] = at
    return nodes[slot[nodes] == at]


def _spread(adj, frontier, hit):
    """Mark in hit every node that the frontier nodes reach through
    unmarked nodes; the frontier must be marked already.

    One loop per breadth-first level: the successors of the whole frontier
    at once, the unmarked ones marked and, once each, the next frontier.
    """
    slot = np.empty(hit.size, dtype=np.int64)
    while frontier.size:
        nxt = adj.successors(frontier)
        nxt = nxt[~hit[nxt]]
        hit[nxt] = True
        frontier = _once(nxt, slot)


def reachable(adj, seeds):
    """Mask of the nodes reachable from any seed node, seeds included."""
    hit = np.array(seeds, dtype=bool)
    _spread(adj, np.flatnonzero(hit), hit)
    return hit


def _trim(adj, alive):
    """Drop from the node mask alive, in place, every node left with no
    predecessor or no successor among the live nodes, until none is.
    Every edge of adj must join two live nodes.

    Kahn's algorithm, one loop per round of drops: the degree counts are
    lowered only along the edges of the nodes just dropped, and the next
    round drops the nodes that this brought to zero.  The two sides do not
    interact: a node dropped for want of predecessors is the successor of
    no live node, and one dropped for want of successors the predecessor of
    none.  So each side runs to its end in turn, and the reverse graph is
    read only once a node is dropped for want of successors.
    """
    n = alive.size
    slot = np.empty(n, dtype=np.int64)
    for forward in (True, False):
        deg = np.bincount(adj.indices, minlength=n) if forward else np.diff(adj.indptr)
        frontier = np.flatnonzero(alive & (deg == 0))
        while frontier.size:
            alive[frontier] = False
            hit = (adj if forward else adj.T).successors(frontier)
            np.subtract.at(deg, hit, 1)
            hit = hit[deg[hit] == 0]
            frontier = _once(hit[alive[hit]], slot)


def _within(adj, alive, color):
    """adj with only the edges that join two live nodes of one color; only
    the rows of live nodes are read."""
    live = np.flatnonzero(alive)
    cols, bounds = _row_entries(adj.indptr, adj.indices, live)
    keep = alive[cols] & (color[cols] == np.repeat(color[live], np.diff(bounds)))
    indptr = np.zeros(alive.size + 1, dtype=np.int64)
    indptr[live + 1] = np.diff(_counted(keep, bounds))
    return Adjacency(np.cumsum(indptr, out=indptr), cols[keep])


def cycle_classes(adj):
    """The cycle class of every node of an Adjacency: the smallest node of
    its strongly connected component when that component has more than one
    node or the node has a self-loop, else -1.

    Forward-backward rounds with trimming.  Each round picks the smallest
    live node of each color as its pivot and searches forward and backward
    from all pivots at once, within their colors.  A pivot's component is
    what it reaches and what reaches it; it is labelled and dropped, and
    the rest of its color splits into the forward-only part, the
    backward-only part and the others, which share no component.  Only
    the edges between live nodes of one color are kept, and a trim drops
    every node that is then on no cycle.
    """
    n = adj.shape[0]
    # self-loops; the per-edge row array (4.8 MB at hopf2d 256²) is freed
    # here, not held through the rounds, where the peak of analyze falls
    loop = np.zeros(n, dtype=bool)
    loop[adj.indices[adj.nonzero()[0] == adj.indices]] = True
    labels = np.full(n, -1, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    color = np.zeros(n, dtype=np.int64)
    _trim(adj, alive)
    while True:
        live = np.flatnonzero(alive)
        if not live.size:
            return labels
        # live is sorted, so the first live node of each color is its smallest
        _, first, color[live] = np.unique(color[live], return_index=True, return_inverse=True)
        pivot = live[first]
        fwd = ~alive
        fwd[pivot] = True
        _spread(adj, pivot, fwd)
        bwd = ~alive
        bwd[pivot] = True
        _spread(adj.T, pivot, bwd)
        fwd &= alive
        bwd &= alive
        members = np.flatnonzero(fwd & bwd)
        size = np.bincount(color[members], minlength=pivot.size)
        cyclic = (size > 1) | loop[pivot]
        won = members[cyclic[color[members]]]
        labels[won] = pivot[color[won]]
        alive[members] = False
        color = 3 * color + fwd + 2 * bwd
        adj = _within(adj, alive, color)
        _trim(adj, alive)


def on_cycle(adj):
    """Mask of the nodes of an Adjacency that lie on a cycle: in a strongly
    connected component of more than one node, or on a self-loop."""
    return cycle_classes(adj) >= 0


def invariant_part(graph, boxes):
    """The maximal subgraph of a box set where every box lies on a full orbit.

    These are the boxes that a cycle of the set reaches and that reach one;
    each has at least one predecessor and at least one successor inside the
    result, and EXIT edges never count.
    The isolated flag records whether the survivors stay clear of the box
    set's boundary layer, grid edge included.
    """
    keep = np.ones(len(boxes), dtype=bool)
    _trim(graph.restricted(boxes), keep)
    inv = BoxSet(boxes.ids[keep])
    isolated = inv.isdisjoint(graph.grid.boundary_layer(boxes))
    return InvariantPart(inv, isolated)
