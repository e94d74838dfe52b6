"""Exact Euclidean distances from points to unions of grid boxes.

Every query point lies in a grid box, so the search is done once per box,
not once per point, and cached on the distance object.  A query box b gets
two rows of candidate set boxes.

The full row is a superset of the set boxes that can hold the nearest
point of S for any point of b.  Let U_b be the smallest farthest-point
distance from b to a set box s, the largest distance from a point of b to
s, taken over every set box.  A point x of b is within U_b of S, so the
set box nearest to x has a gap to b, the distance between the two closed
boxes, of at most U_b.  The full row is every set box whose gap to b is at
most U_b plus a small floating-point slack; the slack also covers points a
rounding error outside b.  The row is found on the box lattice, not in a
tree.  Two boxes at index offset o have a gap of at least
sqrt(Σ_i ((|o_i| - 1)⁺ w_i)²), so only the set boxes in the index ball of
radius U_b around b are measured, and since set ids are sorted in C order,
the set boxes on one line of the ball are one searchsorted slice.  A first
pass bounds U_b: its window doubles until it meets the set, and on each
line only the set boxes nearest to b count, because far distances grow
with the offset on each axis.

The pruned row drops dominated boxes.  With o = s - b the index offset of
set box s, s is dominated by s' when on every axis o'_i lies between 0
and o_i, both included: s' sits in the index rectangle spanned by b and
s.  Take a point x inside the computed bounds of b.  On an axis with
o'_i = 0, s' has b's bounds, so x is not clamped there.  Otherwise x_i is
clamped to the face of s' or s toward b, and that face moves away from x_i
as |o_i| grows: the grid's bounds are monotone in the index on each axis,
equal indices give equal bounds, and x_i lies within b's own bounds.
Subtraction, squaring, the in-order sum and sqrt are monotone too, so the
clamp distance to s' is at most the one to s, bit for bit.  Every point
inside the computed bounds of b thus has a nearest box that no other set
box dominates, and the pruned row keeps only the boxes of the full row
whose rectangle with b holds no other set box, a count read off a
summed-area table of the set.  The argument fails for a point outside b's
computed bounds, where a dominated box can be nearer: box_of can put a
point a rounding error beyond the faces of its box.  Such points take the
full row, and so do points outside the domain, on their unclipped virtual
box, without caching.  A point whose virtual box has no integer index (it
is not finite, or too far out) takes every set box.

A point inside the computed bounds of a box of S gets 0 without clamping.
Every other point gets the minimum, over its row, of the squared distance
to the candidate box found by clamping the point to it, and then one sqrt.
That is the minimum over all set boxes, so the distances are exact, not
approximate.  The squares are added in order of the axes, as
np.linalg.norm adds them for fewer than 8 axes, so there the distances
are its bits.
"""

import itertools

import numpy as np

from .errors import PreconditionError
from .grid import sorted_unique

# Relative floating-point slack on the candidate bounds.  It only admits
# extra candidates, so it costs time, never exactness.
_SLACK = 1e-9

# Query points clamped per batch, which bounds the per-point arrays of one
# batch, about 100 bytes per point.  glibc's malloc keeps a batch under a
# megabyte for the next batch or call; at 65,536 points, each distance call
# on a row block of the Lyapunov readers was given back to the system and
# faulted in again (36k against 18k page faults for the hopf2d 64²
# Morse-sum field).
_CHUNK = 1 << 13

# Virtual boxes with an index beyond this on some axis take every set box.
_FAR = 2.0 ** 52


def _spans(start, count):
    """(row, value) of every entry of the integer ranges [start, start + count)."""
    row = np.repeat(np.arange(count.size), count)
    return row, np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)


def _clamp_squared(x, lo, hi):
    """Squared distance from each row of x to the box [lo, hi] of that row.

    lo is overwritten.  On a huge domain a square or a sum that overflows
    reads as inf, without a warning; finite values keep their bits.
    """
    np.maximum(x, lo, out=lo)
    np.minimum(lo, hi, out=lo)
    with np.errstate(over="ignore"):
        np.subtract(x, lo, out=lo)
        np.multiply(lo, lo, out=lo)
        return _sum_axes(lo)


def _sum_axes(sq):
    """Row sums of an (n, d) array, added in order of the axes."""
    out = sq[:, 0].copy()
    for axis in range(1, sq.shape[1]):
        out += sq[:, axis]
    return out


class QueryBoxes:
    """Query points grouped by box: the part of a query set by the points alone.

    boxes, if given, are the box_of ids of the points.  A group is the
    points inside the computed bounds of one box (key 2 * id), the points
    of one box outside them (key 2 * id + 1), the points outside the domain
    in one virtual box (key -2 - j, with index virtual[j]), or the points
    whose virtual box has no integer index (key -1).  Build one per point
    set and pass it as the boxes of every BoxSetDistance call on those
    points.
    """

    def __init__(self, grid, points, boxes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.grid = grid
        self.points = pts
        ids = np.atleast_1d(grid.box_of(pts) if boxes is None
                            else np.asarray(boxes, dtype=np.int64))
        order = np.argsort(ids)
        ids = ids[order]
        # ids are sorted, so the points of one box are a run, and the
        # points outside the domain (-1) come first.
        first = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))
        box, size = ids[first], np.diff(first, append=ids.size)
        inside = box >= 0
        out = ids.size - size[inside].sum()
        # A box whose points all lie inside its computed bounds passes on
        # the extremes of its run; only the others test point by point.
        at = np.take(pts, order[out:], axis=0)
        run, size = first[inside] - out, size[inside]
        bounds = grid.bounds(box[inside])
        lo, hi = bounds[:, :, 0], bounds[:, :, 1]
        whole = ((np.minimum.reduceat(at, run) >= lo)
                 & (np.maximum.reduceat(at, run) <= hi)).all(axis=1)
        own = np.repeat(whole, size)
        part = np.flatnonzero(~whole)
        which, test = _spans(run[part], size[part])
        own[test] = ((at[test] >= lo[part[which]]) & (at[test] <= hi[part[which]])).all(axis=1)
        key = np.full(ids.size, -1, dtype=np.int64)
        key[out:] = 2 * ids[out:] + ~own
        self.virtual = np.empty((0, grid.dimension), dtype=np.int64)
        if out:
            with np.errstate(invalid="ignore", over="ignore"):
                cell = np.floor((pts[order[:out]] - grid.domain[:, 0]) / grid.widths)
            near = np.flatnonzero((np.abs(cell) <= _FAR).all(axis=1))
            self.virtual, which = np.unique(cell[near].astype(np.int64), axis=0,
                                            return_inverse=True)
            key[near] = -2 - which.ravel()
        # Nearly sorted already: only points outside the domain or their
        # box's bounds move.
        regroup = np.argsort(key, kind="stable")
        self.order = order[regroup]
        key = key[regroup]
        self.offsets = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
        self.keys = key[self.offsets]
        self.sizes = np.diff(self.offsets, append=key.size)


class BoxSetDistance:
    """Callable computing the exact distance from points to a box set.

    The distance to the empty set is +inf.
    """

    def __init__(self, grid, boxset):
        self.grid = grid
        self.boxset = boxset
        self.n = len(boxset)
        if self.n:
            bounds = grid.bounds(boxset.ids)
            self._lo = np.ascontiguousarray(bounds[:, :, 0])
            self._hi = np.ascontiguousarray(bounds[:, :, 1])
            self._multi = grid.multi_index(boxset.ids)
            self._first = self._multi.min(axis=0)
            self._last = self._multi.max(axis=0)
            self._scale = float(np.abs(grid.domain).max())
            self._counts = None
            # Candidate rows of the boxes searched so far, sorted by box id:
            # the pruned row of _key[i] is _flat[_start[i, 0]:][:_count[i, 0]]
            # and its full row _flat[_start[i, 1]:][:_count[i, 1]].
            self._key = np.empty(0, dtype=np.int64)
            self._start = np.empty((0, 2), dtype=np.int64)
            self._count = np.empty((0, 2), dtype=np.int64)
            self._flat = np.empty(0, dtype=np.int64)

    def _gap(self, lo, hi, cand):
        """Distance between the closed query box [lo, hi] and set boxes cand.

        With the query box's faces swapped, _gap(hi, lo, cand), it is the
        far distance: the largest distance from a point of the box to cand.
        """
        # a squared gap that overflows on a huge domain reads as inf
        with np.errstate(over="ignore"):
            gap = np.maximum(0.0, np.maximum(np.take(self._lo, cand, axis=0) - hi,
                                             lo - np.take(self._hi, cand, axis=0)))
            return np.sqrt(_sum_axes(gap * gap))

    def _window(self, multi, radius, nearest=False):
        """(owner, set index) of the set boxes near each query box.

        Two boxes at index offset o have a gap of at least
        sqrt(Σ_i ((|o_i| - 1)⁺ w_i)²), so the window of multi[i] is the
        offsets where that bound is at most radius[i], clipped to the
        bounding box of the set; owners come out in ascending order.  With
        nearest, each line of the window along the last axis gives only
        its set boxes nearest to the query box on either side.
        """
        widths = self.grid.widths
        owner = np.arange(len(multi))
        line = np.zeros(owner.size, dtype=np.int64)
        budget = radius * radius
        for axis, stride in enumerate(self.grid._strides):
            reach = 1 + np.floor(np.minimum(np.sqrt(budget) / widths[axis], 2.0 ** 61))
            reach = reach.astype(np.int64)
            centre = multi[owner, axis]
            first = np.maximum(centre - reach, self._first[axis])
            last = np.minimum(centre + reach, self._last[axis])
            if axis == multi.shape[1] - 1:
                break
            row, at = _spans(first, np.maximum(last - first + 1, 0))
            owner, line, centre = owner[row], line[row] + at * stride, centre[row]
            step = np.maximum(np.abs(at - centre) - 1, 0) * widths[axis]
            budget = np.where(np.isinf(budget[row]), np.inf,
                              np.maximum(budget[row] - step * step, 0.0))
        ids = self.boxset.ids
        begin = np.searchsorted(ids, line + first)
        end = np.searchsorted(ids, line + last, side="right")
        if nearest:
            mid = np.searchsorted(ids, line + np.clip(centre, first, last))
            begin, end = np.maximum(begin, mid - 1), np.minimum(end, mid + 1)
        row, cand = _spans(begin, np.maximum(end - begin, 0))
        return owner[row], cand

    def _full_rows(self, multi):
        """(owner, set index) pairs of the full rows of query boxes multi, by owner.

        First a bound on U_b: far distances grow with the offset on each
        axis, so on each window line the set boxes nearest to b on either
        side hold the line's smallest one, and a window that holds no set
        box doubles its radius.  The window of that bound plus 2 slack then
        holds every set box with a gap of at most U_b + slack, the second
        slack covering the rounding of the gap, and so also the box that
        gives U_b.  Query boxes go in blocks that bound the window lines of
        one round.
        """
        widths = self.grid.widths
        lo = self.grid.domain[:, 0] + multi * widths
        hi = lo + widths
        block = max(1, (1 << 20) // int(np.prod(self._last[:-1] - self._first[:-1] + 1)))
        owners, cands = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.maximum(np.abs(lo), np.abs(hi)).max(axis=1)
            slack = _SLACK * np.maximum(self._scale, scale)
            upper = np.full(len(multi), np.inf)
            radius = np.zeros(len(multi))
            met = np.zeros(len(multi), dtype=bool)
            for part in np.array_split(np.arange(len(multi)), -(-len(multi) // block)):
                todo = part
                while todo.size:
                    owner, cand = self._window(multi[todo], radius[todo], nearest=True)
                    box = todo[owner]
                    np.minimum.at(upper, box, self._gap(hi[box], lo[box], cand))
                    met[box] = True
                    radius[todo] = 2 * radius[todo] + widths.min()
                    todo = todo[~met[todo]]
                owner, cand = self._window(multi[part], upper[part] + 2 * slack[part])
                box = part[owner]
                runs = np.flatnonzero(np.diff(owner, prepend=-1))
                upper[part] = np.minimum.reduceat(self._gap(hi[box], lo[box], cand), runs) \
                    + slack[part]
                near = self._gap(lo[box], hi[box], cand) <= upper[box]
                owners.append(box[near])
                cands.append(cand[near])
        return np.concatenate(owners), np.concatenate(cands)

    def _undominated(self, multi, cand):
        """Whether the index rectangle spanned by multi[i] and set box cand[i]
        holds no other set box."""
        if self._counts is None:
            shape = self._last - self._first + 1
            mask = np.zeros(shape, dtype=np.int64)
            mask[tuple((self._multi - self._first).T)] = 1
            self._counts = np.zeros(shape + 1, dtype=np.int64)
            for axis in range(mask.ndim):
                mask = np.cumsum(mask, axis=axis)
            self._counts[(slice(1, None),) * mask.ndim] = mask
        s = self._multi[cand]
        low = np.maximum(np.minimum(multi, s), self._first) - self._first
        high = np.minimum(np.maximum(multi, s), self._last) - self._first + 1
        inside = 0
        for corner in itertools.product((False, True), repeat=s.shape[1]):
            at = tuple(high[:, i] if c else low[:, i] for i, c in enumerate(corner))
            sign = -1 if (len(corner) - sum(corner)) % 2 else 1
            inside = inside + sign * self._counts[at]
        return inside == 1

    def _rows(self, boxes):
        """Positions in the table of in-domain boxes, searching new ones."""
        key = self._key
        pos = np.searchsorted(key, boxes)
        known = pos < key.size
        known[known] = key[pos[known]] == boxes[known]
        if not known.all():
            new = sorted_unique(boxes[~known])
            multi = self.grid.multi_index(new)
            owner, full = self._full_rows(multi)
            at = np.searchsorted(self.boxset.ids, new)
            member = self.boxset.ids[np.minimum(at, self.n - 1)] == new
            keep = ~member[owner] & self._undominated(multi[owner], full)
            pruned = full[keep]
            count = np.stack([np.bincount(owner[keep], minlength=new.size),
                              np.bincount(owner, minlength=new.size)], axis=1)
            start = np.cumsum(count, axis=0) - count + [self._flat.size,
                                                        self._flat.size + pruned.size]
            order = np.argsort(np.concatenate([key, new]), kind="stable")
            self._key = np.concatenate([key, new])[order]
            self._start = np.concatenate([self._start, start])[order]
            self._count = np.concatenate([self._count, count])[order]
            self._flat = np.concatenate([self._flat, pruned, full])
            pos = np.searchsorted(self._key, boxes)
        return pos

    def __call__(self, points, boxes=None):
        """Distances of points to the set.

        boxes, if given, are the box_of ids of the points, or their
        QueryBoxes, which carries the work that depends only on the points
        to every distance object queried with them.
        """
        shared = isinstance(boxes, QueryBoxes)
        if shared and (np.shape(points) != boxes.points.shape or boxes.grid != self.grid):
            raise PreconditionError("QueryBoxes were built for other points or another grid")
        if self.n == 0:
            out = np.full(np.atleast_2d(points).shape[0], np.inf)
        else:
            out = self._distances(boxes if shared else QueryBoxes(self.grid, points, boxes))
        return float(out[0]) if np.ndim(points) == 1 else out

    def _distances(self, query):
        """Distances of the points of query to the nonempty set."""
        keys = query.keys
        start = np.empty(keys.size, dtype=np.int64)
        count = np.empty(keys.size, dtype=np.int64)
        flat = self._flat
        cached = keys >= 0
        if cached.any():
            pos = self._rows(keys[cached] >> 1)
            flat = self._flat
            start[cached] = self._start[pos, keys[cached] & 1]
            count[cached] = self._count[pos, keys[cached] & 1]
        virtual = np.flatnonzero(keys < -1)
        if virtual.size:
            owner, cand = self._full_rows(query.virtual[-2 - keys[virtual]])
            count[virtual] = np.bincount(owner, minlength=virtual.size)
            start[virtual] = flat.size + np.cumsum(count[virtual]) - count[virtual]
            flat = np.concatenate([flat, cand])
        every = keys == -1
        if every.any():
            start[every], count[every] = flat.size, self.n
            flat = np.concatenate([flat, np.arange(self.n)])
        return self._clamped(query, start, count, flat)

    def _clamped(self, query, start, count, flat):
        """min over each point's row of its clamp distance; 0 for an empty row.

        Groups go longest row first, so the points that have a candidate
        in slot s of their row are a prefix of the reordered points.
        """
        by = np.argsort(-count, kind="stable")
        by = by[count[by] > 0]
        length = count[by]
        group, at = _spans(query.offsets[by], query.sizes[by])
        # live[s]: the points whose row has more than s candidates
        ends = np.concatenate([[0], np.cumsum(query.sizes[by])])
        live = ends[np.searchsorted(-length, -np.arange(length.max(initial=0)))]
        out = np.zeros(query.points.shape[0])
        for i in range(0, at.size, _CHUNK):
            idx = np.take(query.order, at[i:i + _CHUNK])
            first = np.take(start[by], group[i:i + _CHUNK])
            pts = np.take(query.points, idx, axis=0)
            lo, hi = np.empty_like(pts), np.empty_like(pts)
            best = np.empty(idx.size)
            for slot, p in enumerate(np.minimum(live[live > i] - i, idx.size)):
                x, a, b = pts[:p], lo[:p], hi[:p]
                cand = np.take(flat, first[:p] + slot)
                np.take(self._lo, cand, axis=0, out=a)
                np.take(self._hi, cand, axis=0, out=b)
                sq = _clamp_squared(x, a, b)
                if slot:
                    np.minimum(best[:p], sq, out=best[:p])
                else:
                    best[:p] = sq
            out[idx] = np.sqrt(best)
        return out


def boxset_min_distance(grid, first, second):
    """Exact minimum distance between two box sets as closed regions.

    The nearest box of the second set to a box a of the first is always in
    the pruned row of a: the gap between two boxes is monotone in their
    index offset on every axis, as the clamp distance is.  Disjoint sets
    leave no box of the first set a member, so no row is empty.
    """
    if not first or not second:
        return np.inf
    if not first.isdisjoint(second):
        return 0.0
    dist = BoxSetDistance(grid, second)
    pos = dist._rows(first.ids)
    row, cand = _spans(dist._start[pos, 0], dist._count[pos, 0])
    bounds = grid.bounds(first.ids)[row]
    return float(dist._gap(bounds[:, :, 0], bounds[:, :, 1], dist._flat[cand]).min())
