"""Exact Euclidean distances from points to unions of grid boxes.

Every query point lies in a grid box, so the search is done once per box,
not once per point.  For a query box b and the set S, a candidate table
lists the set boxes that can hold the nearest point of S for any point of
b:

- the upper bound U_b is the smallest farthest-point distance from b to a
  set box s, the largest distance from a point of b to s, taken over the k
  set boxes whose centers are nearest to the center of b;
- s is a candidate when its gap to b, the distance between the two closed
  boxes, is at most U_b plus a small floating-point slack.

The nearest set box of any point of b is then always a candidate.  A KD
tree over the set box centers proposes the k nearest boxes; when they do
not reach past U_b plus one box diagonal, a ball query finds the rest.
Tables are cached on the distance object, so a box is searched only once
however many calls and points land in it.

A point inside a box of S gets 0 without clamping.  Every other point
gets the minimum, over the candidates of its box, of the distance to the
candidate box found by clamping the point to it.  That is the minimum over
all set boxes, so the distances are exact, not approximate.  Points outside
the domain use the same table on their unclipped virtual box, without
caching.
"""

import numpy as np
from scipy.spatial import cKDTree

# Relative floating-point slack on the candidate bounds.  It only admits
# extra candidates, so it costs time, never exactness.
_SLACK = 1e-9

# Query points clamped per batch, which bounds the (point, candidate) pair
# arrays of one batch.
_CHUNK = 1 << 15


def _expand(flat, start, count):
    """Offsets, row and candidate of each (row, candidate) pair.

    Row i owns flat[start[i]:start[i] + count[i]]; its pairs begin at
    offset first[i] of the returned arrays.
    """
    first = np.cumsum(count) - count
    rows = np.repeat(np.arange(count.size), count)
    return first, rows, flat[np.arange(rows.size) + np.repeat(start - first, count)]


class BoxSetDistance:
    """Callable computing the exact distance from points to a box set.

    k is the number of nearest set boxes the KD tree proposes per query
    box.  The distance to the empty set is +inf.
    """

    def __init__(self, grid, boxset, k=32):
        self.grid = grid
        self.boxset = boxset
        self.n = len(boxset)
        if self.n:
            bounds = grid.bounds(boxset.ids)
            self._lo = np.ascontiguousarray(bounds[:, :, 0])
            self._hi = np.ascontiguousarray(bounds[:, :, 1])
            self._tree = cKDTree(grid.centers(boxset.ids))
            self._diag = float(np.linalg.norm(grid.widths))
            self._scale = float(np.abs(grid.domain).max())
            self._k = min(k, self.n)
            # Candidate table of the boxes searched so far, sorted by box id:
            # the candidates of _key[i] are _flat[_start[i]:_start[i] + _count[i]]
            # and _member[i] is its index in the set, or -1.
            self._key = np.empty(0, dtype=np.int64)
            self._start = np.empty(0, dtype=np.intp)
            self._count = np.empty(0, dtype=np.intp)
            self._member = np.empty(0, dtype=np.intp)
            self._flat = np.empty(0, dtype=np.intp)

    def _gap(self, lo, hi, cand):
        """Distance between the closed query box [lo, hi] and set boxes cand."""
        gap = np.maximum(0.0, np.maximum(self._lo[cand] - hi, lo - self._hi[cand]))
        return np.linalg.norm(gap, axis=-1)

    def _candidates(self, lo, hi):
        """Candidate set-box indices for each query box [lo[i], hi[i]].

        A box with non-finite bounds gets every set box.
        """
        m = lo.shape[0]
        out = [np.arange(self.n)] * m
        finite = np.flatnonzero(np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1))
        if finite.size == 0:
            return out
        lo, hi = lo[finite], hi[finite]
        centers = 0.5 * (lo + hi)
        slack = _SLACK * np.maximum(self._scale, np.maximum(np.abs(lo), np.abs(hi)).max(axis=1))
        center_d, near = self._tree.query(centers, k=self._k)
        center_d = center_d.reshape(len(finite), -1)
        near = near.reshape(len(finite), -1)
        far = np.maximum(0.0, np.maximum(self._lo[near] - lo[:, None], hi[:, None] - self._hi[near]))
        upper = np.linalg.norm(far, axis=2).min(axis=1) + slack
        keep = self._gap(lo[:, None], hi[:, None], near) <= upper[:, None]
        for i, row in enumerate(finite):
            out[row] = near[i][keep[i]]
        if self._k < self.n:
            # Boxes past the k-th center can only be candidates when that
            # center lies within U_b plus one box diagonal.
            reach = upper + self._diag + slack
            for i in np.flatnonzero(center_d[:, -1] <= reach):
                ball = np.asarray(self._tree.query_ball_point(centers[i], reach[i]), dtype=np.intp)
                ball = ball[self._gap(lo[i], hi[i], ball) <= upper[i]]
                out[finite[i]] = np.union1d(out[finite[i]], ball)
        return out

    def _rows(self, boxes):
        """Table start, count and set index of in-domain boxes, searching new ones."""
        key = self._key
        pos = np.searchsorted(key, boxes)
        known = key.size and (key[np.minimum(pos, key.size - 1)] == boxes).all()
        if not known:
            new = np.setdiff1d(boxes, key)
            bounds = self.grid.bounds(new)
            cands = self._candidates(bounds[:, :, 0], bounds[:, :, 1])
            count = np.array([c.size for c in cands], dtype=np.intp)
            start = self._flat.size + np.cumsum(count) - count
            at = np.searchsorted(self.boxset.ids, new)
            hit = at < self.n
            hit[hit] = self.boxset.ids[at[hit]] == new[hit]
            key = np.concatenate([key, new])
            order = np.argsort(key, kind="stable")
            self._key = key[order]
            self._start = np.concatenate([self._start, start])[order]
            self._count = np.concatenate([self._count, count])[order]
            self._member = np.concatenate([self._member, np.where(hit, at, -1)])[order]
            self._flat = np.concatenate([self._flat, *cands])
            pos = np.searchsorted(self._key, boxes)
        return self._start[pos], self._count[pos], self._member[pos]

    def __call__(self, points, boxes=None):
        """Distances of points to the set; boxes, if given, are their box_of ids."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.n == 0:
            out = np.full(pts.shape[0], np.inf)
            return float(out[0]) if single else out

        boxes = np.atleast_1d(self.grid.box_of(pts) if boxes is None else boxes)
        if (boxes < 0).any():
            # Unclipped virtual boxes of the points outside the domain.
            start = np.empty(boxes.size, dtype=np.intp)
            count = np.empty(boxes.size, dtype=np.intp)
            member = np.full(boxes.size, -1, dtype=np.intp)
            inside = boxes >= 0
            outside = np.flatnonzero(~inside)
            start[inside], count[inside], member[inside] = self._rows(boxes[inside])
            lo0, widths = self.grid.domain[:, 0], self.grid.widths
            with np.errstate(invalid="ignore", over="ignore"):
                lo = lo0 + np.floor((pts[outside] - lo0) / widths) * widths
                hi = lo + widths
            cands = self._candidates(lo, hi)
            count[outside] = [c.size for c in cands]
            start[outside] = self._flat.size + np.cumsum(count[outside]) - count[outside]
            flat = np.concatenate([self._flat, *cands])
        else:
            start, count, member = self._rows(boxes)
            flat = self._flat

        # Points inside a box of the set are at distance 0; every other
        # point takes its minimum clamp distance over its box's candidates.
        # Inside means inside the computed bounds: box_of can place a point
        # a rounding error beyond the faces of its box.
        best = np.zeros(boxes.size)
        todo = member < 0
        at = np.flatnonzero(~todo)
        if at.size:
            own = member[at]
            todo[at] = ~((pts[at] >= self._lo[own]) & (pts[at] <= self._hi[own])).all(axis=1)
        todo = np.flatnonzero(todo)
        for i in range(0, todo.size, _CHUNK):
            idx = todo[i:i + _CHUNK]
            first, rows, cand = _expand(flat, start[idx], count[idx])
            q = pts[idx[rows]]
            d = np.linalg.norm(q - np.clip(q, self._lo[cand], self._hi[cand]), axis=1)
            best[idx] = np.minimum.reduceat(d, first)
        if single:
            return float(best[0])
        return best


def boxset_min_distance(grid, first, second, k=32):
    """Exact minimum distance between two box sets as closed regions.

    The nearest box of the second set to a box a of the first is always
    among the candidates of a, so only those gaps are measured.
    """
    if not first or not second:
        return np.inf
    if not first.isdisjoint(second):
        return 0.0
    dist = BoxSetDistance(grid, second, k)
    start, count, _ = dist._rows(first.ids)
    _, rows, cand = _expand(dist._flat, start, count)
    bounds = grid.bounds(first.ids)[rows]
    return float(dist._gap(bounds[:, :, 0], bounds[:, :, 1], cand).min())
