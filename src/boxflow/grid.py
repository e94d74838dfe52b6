"""Uniform box grids over rectangular domains and integer box sets.

Boxes are half-open cells of a uniform grid, indexed in C order by a single
integer id.  Points on the upper domain boundary are assigned to the last
box along that axis so the closed domain is covered exactly.
"""

import itertools
import math

import numpy as np

from .errors import CapacityError, PreconditionError

MAX_BOXES = 2 ** 31


class BoxSet:
    """An immutable sorted set of box ids.

    Ids are plain integers; set algebra is done on sorted int64 arrays.
    """

    __slots__ = ("ids",)

    def __init__(self, ids=()):
        arr = np.asarray(ids, dtype=np.int64).ravel()
        self.ids = np.unique(arr)

    @classmethod
    def from_mask(cls, mask):
        return cls(np.flatnonzero(np.asarray(mask)))

    def mask(self, n_boxes):
        out = np.zeros(n_boxes, dtype=bool)
        out[self.ids] = True
        return out

    def union(self, other):
        return BoxSet(np.union1d(self.ids, other.ids))

    def intersection(self, other):
        return BoxSet(np.intersect1d(self.ids, other.ids, assume_unique=True))

    def difference(self, other):
        return BoxSet(np.setdiff1d(self.ids, other.ids, assume_unique=True))

    def issubset(self, other):
        return np.isin(self.ids, other.ids, assume_unique=True).all()

    def isdisjoint(self, other):
        return not np.isin(self.ids, other.ids, assume_unique=True).any()

    def __contains__(self, box):
        i = np.searchsorted(self.ids, box)
        return i < self.ids.size and self.ids[i] == box

    def __len__(self):
        return int(self.ids.size)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __bool__(self):
        return self.ids.size > 0

    def __eq__(self, other):
        if not isinstance(other, BoxSet):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)

    def __hash__(self):
        return hash(self.ids.tobytes())

    def __repr__(self):
        if len(self) <= 8:
            return f"BoxSet({self.ids.tolist()})"
        return f"BoxSet(<{len(self)} boxes>)"


class BoxGrid:
    """A uniform grid of boxes over a closed rectangular domain."""

    def __init__(self, domain, shape):
        self.domain = np.asarray(domain, dtype=float)
        self.shape = tuple(int(s) for s in shape)
        self.dimension = len(self.shape)
        if self.domain.shape != (self.dimension, 2):
            raise PreconditionError(
                f"domain must have shape ({self.dimension}, 2), got {self.domain.shape}")
        if any(s < 1 for s in self.shape):
            raise PreconditionError(f"every axis needs at least one box, got {self.shape}")
        if (self.domain[:, 0] >= self.domain[:, 1]).any():
            raise PreconditionError("each domain axis needs low < high")
        n = 1
        for s in self.shape:
            n *= s
        if n > MAX_BOXES:
            raise CapacityError(f"grid would hold {n} boxes, limit is {MAX_BOXES}")
        self.n_boxes = n
        self.widths = (self.domain[:, 1] - self.domain[:, 0]) / np.array(self.shape)
        self._top = np.array(self.shape, dtype=np.int64) - 1
        self._strides = np.array([math.prod(self.shape[k + 1:]) for k in range(self.dimension)],
                                 dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, BoxGrid):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.domain, other.domain)

    def __repr__(self):
        return f"BoxGrid(shape={self.shape}, domain={self.domain.tolist()})"

    def all_boxes(self):
        return BoxSet(np.arange(self.n_boxes, dtype=np.int64))

    def _check_ids(self, ids):
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_boxes):
            raise PreconditionError("box id out of range for this grid")
        return ids

    def multi_index(self, ids):
        ids = self._check_ids(ids)
        return np.stack(np.unravel_index(ids, self.shape), axis=1)

    def ravel(self, multi):
        multi = np.atleast_2d(np.asarray(multi, dtype=np.int64))
        return np.ravel_multi_index(tuple(multi.T), self.shape)

    def box_of(self, points):
        """Map points to box ids; points outside the closed domain get -1."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        lo = self.domain[:, 0]
        hi = self.domain[:, 1]
        inside = ((pts >= lo) & (pts <= hi)).all(axis=1)
        ix = np.floor((pts - lo) / self.widths).astype(np.int64)
        np.minimum(np.maximum(ix, 0, out=ix), self._top, out=ix)
        ids = np.where(inside, ix @ self._strides, np.int64(-1))
        if single:
            return int(ids[0])
        return ids

    def centers(self, ids):
        ids = self._check_ids(ids)
        multi = np.stack(np.unravel_index(ids, self.shape), axis=1)
        return self.domain[:, 0] + (multi + 0.5) * self.widths

    def bounds(self, ids):
        """Per-box [low, high] bounds, shape (n, d, 2)."""
        ids = self._check_ids(ids)
        multi = np.stack(np.unravel_index(ids, self.shape), axis=1)
        lo = self.domain[:, 0] + multi * self.widths
        return np.stack([lo, lo + self.widths], axis=2)

    def lattice(self, ids, samples_per_axis):
        """Sample points in each box, box-major.

        One sample per axis means box centers; otherwise samples are spread
        evenly from one face to the other, corners included.  Returns an
        (n_boxes * samples_per_axis**d, d) array.
        """
        if samples_per_axis < 1:
            raise PreconditionError("samples_per_axis must be at least 1")
        ids = self._check_ids(ids)
        if samples_per_axis == 1:
            fractions = np.array([0.5])
        else:
            fractions = np.linspace(0.0, 1.0, samples_per_axis)
        grids = np.meshgrid(*([fractions] * self.dimension), indexing="ij")
        combo = np.stack([g.ravel() for g in grids], axis=1)
        multi = np.stack(np.unravel_index(ids, self.shape), axis=1)
        lo = self.domain[:, 0] + multi * self.widths
        pts = lo[:, None, :] + combo[None, :, :] * self.widths
        return pts.reshape(-1, self.dimension)

    def _offsets(self):
        return [off for off in itertools.product((-1, 0, 1), repeat=self.dimension)
                if any(off)]

    def _shift(self, mask, off):
        out = np.zeros_like(mask)
        src = tuple(slice(max(0, -o), mask.shape[k] - max(0, o)) for k, o in enumerate(off))
        dst = tuple(slice(max(0, o), mask.shape[k] - max(0, -o)) for k, o in enumerate(off))
        out[dst] = mask[src]
        return out

    def boundary_layer(self, boxset):
        """Boxes of the set with a missing or out-of-grid adjacent box.

        Adjacency includes diagonal neighbors, so this is the set-theoretic
        boundary of the box set inside the grid, with the grid edge itself
        counting as outside.
        """
        mask = boxset.mask(self.n_boxes).reshape(self.shape)
        interior = mask.copy()
        for off in self._offsets():
            interior &= self._shift(mask, off)
        return BoxSet.from_mask((mask & ~interior).ravel())

    def closure(self, boxset):
        """The set together with all in-grid adjacent boxes."""
        mask = boxset.mask(self.n_boxes).reshape(self.shape)
        grown = mask.copy()
        for off in self._offsets():
            grown |= self._shift(mask, off)
        return BoxSet.from_mask(grown.ravel())

    def dilate(self, boxset, rounds):
        out = boxset
        for _ in range(rounds):
            out = self.closure(out)
        return out


def build_grid(domain, depth):
    """Build a grid with the given number of boxes per axis.

    depth is either one integer used for every axis or a sequence with one
    entry per axis.
    """
    domain = np.asarray(domain, dtype=float)
    d = domain.shape[0]
    if np.isscalar(depth) or isinstance(depth, (int, np.integer)):
        shape = (int(depth),) * d
    else:
        shape = tuple(int(k) for k in depth)
        if len(shape) != d:
            raise PreconditionError(
                f"depth needs one entry per axis ({d}), got {len(shape)}")
    if any(s < 1 for s in shape):
        raise PreconditionError(f"depth entries must be at least 1, got {shape}")
    return BoxGrid(domain, shape)
