"""Uniform box grids over rectangular domains and integer box sets.

Boxes are half-open cells of a uniform grid, indexed in C order by a single
integer id.  Points on the upper domain boundary are assigned to the last
box along that axis so the closed domain is covered exactly.
"""

import itertools
import math

import numpy as np

from .errors import CapacityError, IngestionError, PreconditionError
from .jsonio import number, positive

MAX_BOXES = 2 ** 31
# (sample point, target box) pairs one graph build may produce, counted
# per sample; the one int64 array of packed edge keys is sized by the
# distinct (box, target range) pairs, at most this many, so it stays
# under 512 MiB
MAX_PAIRS = 2 ** 26
# coordinates one quotient march may store, (steps + 1) x points x d: 256 MiB
# of float64 positions; the largest default march, hopf2d's field at 256²,
# stores 7,915,208.  Beside the positions a march stores one int32 box id
# and one absorbed flag per sample, 5 / (8 d) of their bytes.  Its readers
# add one row block of samples at a time (lyapunov.SAMPLE_BLOCK) and their
# outputs: a value per point and profile, or, where a reader keeps ρ, one
# float64 per sample and profile.
MAX_MARCH_VALUES = 2 ** 25
# whole RK4 steps one march by a time t may take: its step sizes and start
# times are Python lists of about 40 bytes a step, 42 MB (50 MB at the
# peak of building them), or 10,485.76 time units at the default step
# 0.01.  The graph build's default map time 1.0 takes 100.
MAX_MARCH_STEPS = 2 ** 20


def ingest_domain(values, what):
    """The float array of a domain read from outside the program.

    Every bound must be a finite JSON number, and every [low, high] pair
    must span a finite width high - low; the (d, 2) shape and low < high
    are the preconditions of the grid or system built from it.
    """
    rows = [[number(v, f"{what} domain") for v in row] for row in values]
    for axis, row in enumerate(rows):
        if len(row) == 2 and not math.isfinite(row[1] - row[0]):
            raise IngestionError(f"{what} domain axis {axis} {row} has no finite "
                                 f"width high - low")
    return np.array(rows, dtype=float)


def sorted_unique(values):
    """np.unique of a 1-d integer array that the caller owns; sorts it in place.

    A sort and an adjacent-difference mask give the same array as
    np.unique, which numpy 2.4 runs through a hash table several times
    slower, and which imports numpy.ma on its first call.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def finite_norm(x, axis=None):
    """np.linalg.norm of finite values, inf only where the norm overflows.

    Where the plain sum of squares overflows, the norm is taken of the
    values divided by the largest magnitude and scaled back.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.norm(x, axis=axis)
        wide = np.isinf(out)
        if wide.any():
            side = np.abs(x).max(axis=axis, keepdims=True)
            out = np.where(wide, np.squeeze(side, axis) * np.linalg.norm(x / side, axis=axis), out)
    return out


def sample_in_boxes(rng, grid, boxset, n):
    """n points drawn uniformly from boxes of the set picked with replacement.

    Returns the picked ids and the (n, d) points.  The picks come from
    rng.integers and then the offsets from rng.random, an order that seeded
    runs rely on.
    """
    picks = boxset.ids[rng.integers(0, len(boxset), size=n)]
    bounds = grid.bounds(picks)
    return picks, bounds[:, :, 0] + rng.random((n, grid.dimension)) * grid.widths


class BoxSet:
    """An immutable sorted set of box ids.

    Ids are plain integers; set algebra is done on sorted int64 arrays.
    """

    __slots__ = ("ids",)

    def __init__(self, ids=()):
        self.ids = sorted_unique(np.array(ids, dtype=np.int64).ravel())

    @classmethod
    def from_mask(cls, mask):
        return cls(np.flatnonzero(np.asarray(mask)))

    def mask(self, n_boxes):
        """Membership of the boxes 0 .. n_boxes - 1, plus a last entry, always
        False, that id -1 (EXIT, or a point outside the domain) reads.

        An id outside [0, n_boxes) raises PreconditionError: id n_boxes
        would set that last entry, and a negative id would index from the end.
        """
        ids = self.ids
        if ids.size and (ids[0] < 0 or ids[-1] >= n_boxes):
            bad = ids[0] if ids[0] < 0 else ids[np.searchsorted(ids, n_boxes)]
            raise PreconditionError(f"box id {bad} is outside the boxes 0..{n_boxes - 1}")
        out = np.zeros(n_boxes + 1, dtype=bool)
        out[ids] = True
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
        with np.errstate(over="ignore", invalid="ignore"):
            wide = np.flatnonzero(~np.isfinite(self.domain[:, 1] - self.domain[:, 0]))
        if wide.size:
            raise PreconditionError(f"domain axis {wide[0]} {self.domain[wide[0]].tolist()} "
                                    f"has no finite width high - low")
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

    def to_dict(self):
        """The grid block of every artifact: boxes per axis and the domain."""
        return {"domain": self.domain.tolist(), "shape": list(self.shape)}

    @classmethod
    def from_dict(cls, data, what):
        """The grid of a grid block read from the file that what names.

        The shape must list positive integers and the domain finite
        numbers, one [low, high] pair per axis with low < high.
        """
        shape = [positive(s, f"{what} grid shape", int) for s in data["shape"]]
        return cls(ingest_domain(data["domain"], f"{what} grid"), shape)

    def ingest_ids(self, values, what, low=0):
        """Box ids read from outside the program, as an int64 array.

        Every entry must be an integer from low (EXIT for edge targets) to
        n_boxes - 1.  Anything else raises IngestionError instead of being
        cast, which would truncate 1.5 to 1 and read true as 1.
        """
        items = values.ravel().tolist() if isinstance(values, np.ndarray) else values
        bad = [v for v in items if type(v) is not int or not low <= v < self.n_boxes]
        if bad:
            problem = ("are not integers" if any(type(v) is not int for v in bad)
                       else f"are outside the grid's boxes {low}..{self.n_boxes - 1}")
            raise IngestionError(f"{what} has ids that {problem}: {bad[:5]}")
        return np.asarray(items, dtype=np.int64)

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
        cells = np.floor((pts - lo) / self.widths)
        # rows outside the domain (inf and nan included) would not cast
        cells[~inside] = 0
        ix = np.minimum(cells.astype(np.int64), self._top)
        ids = np.where(inside, ix @ self._strides, np.int64(-1))
        if single:
            return int(ids[0])
        return ids

    def box_diagonal(self):
        """The length of a box's diagonal, inf only if it overflows."""
        return float(finite_norm(self.widths))

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

    def axis_samples(self, axis, index, samples_per_axis):
        """Sample coordinates on one axis, as an (index.size, samples_per_axis)
        array: row r holds those of the boxes at position index[r] along it.

        The coordinates of lattice's points on that axis, with its
        arithmetic, (low + i * width) + fraction * width: they depend only
        on the position and the fraction, which lets the graph build find
        the distinct lattice points without the lattice.
        """
        if samples_per_axis < 1:
            raise PreconditionError("samples_per_axis must be at least 1")
        if samples_per_axis == 1:
            fractions = np.array([0.5])
        else:
            fractions = np.linspace(0.0, 1.0, samples_per_axis)
        width = self.widths[axis]
        return (self.domain[axis, 0] + index[:, None] * width) + fractions * width

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
        mask = boxset.mask(self.n_boxes)[:-1].reshape(self.shape)
        interior = mask.copy()
        for off in self._offsets():
            interior &= self._shift(mask, off)
        return BoxSet.from_mask((mask & ~interior).ravel())

    def closure(self, boxset):
        """The set together with all in-grid adjacent boxes."""
        mask = boxset.mask(self.n_boxes)[:-1].reshape(self.shape)
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
