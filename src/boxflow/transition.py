"""Box transition graphs: outer approximations of a fixed-time flow map.

Every box is sampled on a small lattice, all sample points are advanced by
the map time in one batch, and each image point is inflated to a box of
radius padding in the max norm.  Every grid box touching an inflated image
becomes a target of the source box.  Sample points whose orbit leaves the
closed domain produce an edge to the synthetic EXIT node instead.
"""

import itertools
import json
from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import IngestionError, PreconditionError
from .flows import _advance
from .grid import BoxGrid, BoxSet

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
        key = src * np.int64(grid.n_boxes + 1) + (dst + 1)
        key = np.unique(key)
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
        edges = []
        for b in range(self.grid.n_boxes):
            t = self.targets_of(b)
            if t.size:
                edges.append([b, t.tolist()])
        data = {
            "map_time": self.map_time,
            "padding": self.padding,
            "samples_per_axis": self.samples_per_axis,
            "grid": {"domain": self.grid.domain.tolist(), "shape": list(self.grid.shape)},
            "edges": edges,
            "exit_node": self.has_exit,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise IngestionError(f"cannot read graph file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IngestionError(f"graph file {path} is not valid JSON: {exc}") from exc
        try:
            grid = BoxGrid(np.asarray(data["grid"]["domain"], dtype=float),
                           data["grid"]["shape"])
            src = []
            dst = []
            for b, targets in data["edges"]:
                src.extend([b] * len(targets))
                dst.extend(targets)
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            bad_src = src[(src < 0) | (src >= grid.n_boxes)]
            bad_dst = dst[(dst < EXIT) | (dst >= grid.n_boxes)]
            if bad_src.size or bad_dst.size:
                raise IngestionError(
                    f"graph file {path} has edges outside the grid's boxes "
                    f"0..{grid.n_boxes - 1} (EXIT is {EXIT}): sources "
                    f"{bad_src[:5].tolist()}, targets {bad_dst[:5].tolist()}")
            return cls(grid, data["map_time"], data["padding"], data["samples_per_axis"],
                       src, dst)
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"graph file {path} is missing fields: {exc}") from exc

    def to_dot(self):
        lines = ["digraph transition {"]
        if self.has_exit:
            lines.append('  exit [label="EXIT", shape=doublecircle];')
        for s, t in zip(self._src.tolist(), self._dst.tolist()):
            lines.append(f"  b{s} -> exit;" if t == EXIT else f"  b{s} -> b{t};")
        lines.append("}")
        return "\n".join(lines)


def _image_pairs(system, grid, ids, map_time, padding, samples_per_axis):
    """Edges (src, dst) from sampling the flow on the given boxes."""
    pts = grid.lattice(ids, samples_per_axis)
    per_box = samples_per_axis ** grid.dimension
    src_of_pt = np.repeat(ids, per_box)
    img, escaped, _ = _advance(system, pts, map_time)

    srcs = []
    dsts = []
    if escaped.any():
        srcs.append(np.unique(src_of_pt[escaped]))
        dsts.append(np.full(srcs[-1].size, EXIT, dtype=np.int64))

    live = ~escaped
    if live.any():
        img = img[live]
        src_live = src_of_pt[live]
        lo = grid.domain[:, 0]
        top = np.array(grid.shape, dtype=np.int64) - 1
        lo_idx = np.floor((img - padding - lo) / grid.widths).astype(np.int64)
        hi_idx = np.floor((img + padding - lo) / grid.widths).astype(np.int64)
        np.clip(lo_idx, 0, top, out=lo_idx)
        np.clip(hi_idx, 0, top, out=hi_idx)
        spans = (hi_idx - lo_idx).max(axis=0) + 1
        for off in itertools.product(*(range(int(s)) for s in spans)):
            idx = lo_idx + np.asarray(off, dtype=np.int64)
            valid = (idx <= hi_idx).all(axis=1)
            if not valid.any():
                continue
            boxes = np.ravel_multi_index(tuple(idx[valid].T), grid.shape)
            srcs.append(src_live[valid])
            dsts.append(boxes.astype(np.int64))

    if not srcs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(srcs), np.concatenate(dsts)


def build_transition_graph(system, grid, map_time, padding=None, samples_per_axis=3):
    """Sample the time map on every box and assemble the transition graph.

    padding defaults to half the box diagonal, which makes the edge set an
    outer approximation of the true time map for modestly curved flows.
    """
    if map_time < system.step:
        raise PreconditionError(
            f"map_time must be at least one integrator step ({system.step}), got {map_time}")
    if padding is None:
        padding = 0.5 * float(np.linalg.norm(grid.widths))
    if padding < 0:
        raise PreconditionError(f"padding must be nonnegative, got {padding}")
    ids = np.arange(grid.n_boxes, dtype=np.int64)
    src, dst = _image_pairs(system, grid, ids, map_time, padding, samples_per_axis)
    return TransitionGraph(grid, map_time, padding, samples_per_axis, src, dst)


def box_image(system, grid, box, map_time, padding=None, samples_per_axis=3):
    """The target boxes of a single box, as a BoxSet; may include EXIT."""
    if map_time < system.step:
        raise PreconditionError(
            f"map_time must be at least one integrator step ({system.step}), got {map_time}")
    if padding is None:
        padding = 0.5 * float(np.linalg.norm(grid.widths))
    ids = np.asarray([box], dtype=np.int64)
    _, dst = _image_pairs(system, grid, ids, map_time, padding, samples_per_axis)
    return BoxSet(dst)


class InvariantPart(NamedTuple):
    boxes: BoxSet
    isolated: bool


def _peel(graph, boxes, require_in, require_out):
    """Iteratively drop boxes missing a required neighbor inside the set.

    With both requirements this yields the combinatorial invariant part;
    with only one it yields the boxes carrying a full backward (require_in)
    or forward (require_out) orbit inside the set.  EXIT edges never count.
    """
    ids = boxes.ids
    n = ids.size
    if n == 0:
        return BoxSet([])

    src, dst = graph.edge_arrays()
    keep = np.isin(src, ids) & np.isin(dst, ids)
    ls = np.searchsorted(ids, src[keep])
    ld = np.searchsorted(ids, dst[keep])

    out_deg = np.bincount(ls, minlength=n)
    in_deg = np.bincount(ld, minlength=n)
    out_adj_starts = np.searchsorted(ls, np.arange(n + 1))
    out_adj = ld
    order = np.argsort(ld, kind="stable")
    in_adj_starts = np.searchsorted(ld[order], np.arange(n + 1))
    in_adj = ls[order]

    def bad(u):
        return (require_out and out_deg[u] == 0) or (require_in and in_deg[u] == 0)

    removed = np.zeros(n, dtype=bool)
    queue = deque(u for u in range(n) if bad(u))
    while queue:
        u = queue.popleft()
        if removed[u]:
            continue
        removed[u] = True
        for v in out_adj[out_adj_starts[u]:out_adj_starts[u + 1]].tolist():
            in_deg[v] -= 1
            if not removed[v] and bad(v):
                queue.append(v)
        for v in in_adj[in_adj_starts[u]:in_adj_starts[u + 1]].tolist():
            out_deg[v] -= 1
            if not removed[v] and bad(v):
                queue.append(v)

    return BoxSet(ids[~removed])


def invariant_part(graph, boxes):
    """The maximal subgraph of a box set where every box lies on a full orbit.

    Boxes are peeled until each survivor has at least one predecessor and at
    least one successor inside the surviving set; EXIT edges never count.
    The isolated flag records whether the survivors stay clear of the box
    set's boundary layer, grid edge included.
    """
    inv = _peel(graph, boxes, require_in=True, require_out=True)
    isolated = inv.isdisjoint(graph.grid.boundary_layer(boxes))
    return InvariantPart(inv, isolated)
