"""Vector fields, fixed-step RK4 integration, and escape tracking.

A system is a vector field on a closed rectangular domain together with an
internal step size.  All integration is done with the classic fourth order
Runge-Kutta scheme on batches of points at once; a batch larger than one
chunk is marched chunk by chunk, by the calling process and one forked
worker process per further CPU, with the same bits as a march of each row
alone.  A field is always called with a C-contiguous float64 (n, d)
array; it may return that array, a read-only array or an array of any
layout or float dtype, and the integrator writes into neither.  It must
keep no state and have no side effects: a chunk may be marched in another
process, and marched twice.  A march raises where its field first raises
in chunk order, as a march in one process does.  A trajectory that
leaves the closed domain is frozen at its last in-domain position and
reported as an escape rather than integrated further.
"""

import itertools
import math
import os
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (CapacityError, CatalogError, DomainError, IngestionError, NumericalError,
                     PreconditionError)
from .grid import MAX_MARCH_STEPS, ingest_domain, sorted_unique
from .jsonio import load_json, number, positive, string

# the most rows _advance marches as one chunk: a chunk's RK4 stages fit in
# cache, and a chunk is the unit of work that the calling process and its
# forked workers claim, and that the calling process marches again when a
# worker could not.  Worker processes share no interpreter lock, so the
# size matters little: with 4,096 to 32,768 rows per chunk the hopf2d
# 256^2 lattice marched in 0.51-0.63 s on two CPUs and 0.96-1.18 s on one.
ADVANCE_CHUNK = 16384


@dataclass
class FlowSystem:
    """A vector field restricted to a closed box domain.

    field maps an (n, d) array of points to an (n, d) array of velocities.
    The integrator calls it with a C-contiguous float64 array and writes
    neither into that array nor into the one returned, so a field may
    return its argument, a read-only array such as np.broadcast_to gives,
    or an array of any layout or float dtype.  It may be called in forked
    worker processes, on disjoint blocks of rows, and a block may be
    marched again by the calling process, so it must keep no state
    between calls and have no side effects.  domain is a (d, 2) array of
    [low, high] bounds per axis.  step is the internal RK4 step size.  equilibria is
    informational only.
    """

    dimension: int
    field: callable
    domain: np.ndarray
    step: float = 0.01
    name: str = "custom"
    equilibria: tuple = ()

    def __post_init__(self):
        self.domain = np.asarray(self.domain, dtype=float)
        if self.domain.shape != (self.dimension, 2):
            raise PreconditionError(
                f"domain must have shape ({self.dimension}, 2), got {self.domain.shape}")
        if not np.isfinite(self.domain).all():
            raise PreconditionError("domain bounds must be finite")
        if (self.domain[:, 0] >= self.domain[:, 1]).any():
            raise PreconditionError("each domain axis needs low < high")
        if not self.step > 0:
            raise PreconditionError(f"step must be positive, got {self.step}")

    def contains(self, points):
        """Boolean mask of rows of an (n, d) array inside the closed domain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = self.domain[:, 0]
        hi = self.domain[:, 1]
        return (pts >= lo).all(axis=1) & (pts <= hi).all(axis=1)


@dataclass
class Escape:
    """Marker returned when a trajectory leaves the closed domain.

    point is the last computed position still inside the domain and time is
    the elapsed integration time at that position.  The true exit happens
    within one internal step after time.
    """

    point: np.ndarray
    time: float


@dataclass
class Trajectory:
    """Equally spaced samples along one orbit.

    If escaped is True the orbit left the domain and escape_index is the
    index of the first sample that could not be produced; times and points
    only cover the produced samples.
    """

    times: np.ndarray
    points: np.ndarray
    escaped: bool = False
    escape_index: int = dataclass_field(default=None)


def _schedule(t, h):
    """Split a duration into whole RK4 steps plus a remainder.

    Durations that are an integer number of steps up to roundoff snap to
    a zero remainder so that repeated composition stays exact.  More than
    MAX_MARCH_STEPS whole steps raise CapacityError.
    """
    if not (math.isfinite(t) and 0 < h < math.inf):
        raise PreconditionError(f"need a finite time and a finite step > 0, got t={t}, step={h}")
    steps = t / h + 1e-9
    if steps >= MAX_MARCH_STEPS + 1:
        raise CapacityError(f"a march by t={t:g} at step {h:g} takes {steps:.6g} steps, "
                            f"limit is {MAX_MARCH_STEPS}")
    n = int(math.floor(steps))
    rem = t - n * h
    if rem <= 1e-12 * max(1.0, abs(t)):
        rem = 0.0
    return n, rem


def _rk4_step(field, pts, h):
    """One classic RK4 step of size h, a scalar or a column of one per row.

    The result has the bits of pts + (h / 6) (k1 + 2 k2 + 2 k3 + k4) with
    stages at pts + (h / 2) k1, pts + (h / 2) k2 and pts + h k3, since
    IEEE + and * commute: each stage input is one product into a fresh
    array with pts added in place, and the sum accumulates in place in one
    fresh array, in the same order.  k1, k2 and k3 are read as
    C-contiguous float64, copied only when the field returns another
    layout or dtype, so the stage inputs and the result are C-contiguous
    float64.  Nothing is written into an array the field was given or
    returned.
    """
    half = 0.5 * h
    k1 = np.asarray(field(pts), dtype=float, order="C")
    stage = k1 * half
    stage += pts
    k2 = np.asarray(field(stage), dtype=float, order="C")
    stage = k2 * half
    stage += pts
    k3 = np.asarray(field(stage), dtype=float, order="C")
    stage = k3 * h
    stage += pts
    k4 = field(stage)
    acc = k2 * 2.0
    acc += k1
    acc += k3 * 2.0
    acc += k4
    acc *= h / 6.0
    acc += pts
    return acc


def _substeps(t, h):
    """The RK4 step sizes of a march by t: whole steps of h, then the remainder."""
    n_steps, rem = _schedule(t, h)
    return [h] * n_steps + ([rem] if rem > 0 else [])


def _tiled_bounds(system, m):
    """The domain's low and high bounds repeated for m rows."""
    lo_rows = np.empty((m, system.dimension))
    hi_rows = np.empty_like(lo_rows)
    lo_rows[:] = system.domain[:, 0]
    hi_rows[:] = system.domain[:, 1]
    return lo_rows, hi_rows


def _step_inside(field, cur, sizes, lo_rows, hi_rows):
    """RK4 steps of the given sizes while every row passes the bounds test.

    Returns (cur, done, failed): the rows after the first done steps, and
    the result of step done, which failed the test, or None when every
    step passed.  The test compares the rows with bounds tiled to them:
    two elementwise comparisons and one reduction over contiguous memory,
    where a per-row mask runs numpy inner loops of length d.  It is sound
    because FlowSystem requires finite bounds: NaN compares False with
    both, and +-inf fails one, so a step that passes has no non-finite
    value and no row outside the domain.
    """
    for done, h in enumerate(sizes):
        nxt = _rk4_step(field, cur, h)
        if not ((nxt >= lo_rows) & (nxt <= hi_rows)).all():
            return cur, done, nxt
        cur = nxt
    return cur, len(sizes), None


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flag_guard(flagged):
    """np.errstate under which each floating-point flag that numpy's
    current settings do not ignore appends its kind to flagged, in place
    of warning, raising or calling the caller's handler."""
    modes = {kind: "ignore" if mode == "ignore" else "call"
             for kind, mode in np.geterr().items()}
    return np.errstate(call=lambda kind, code: flagged.append(kind), **modes)


def _batch_arrays(shape, n_chunks, shared):
    """The result arrays of a batch of the given (n, d) shape: uninitialised
    positions, escape flags set to False and escape times set to nan, and
    per chunk a claimed flag set to False and an int64 outcome set to -1.

    With shared, the five arrays lie in one anonymous shared mapping, so
    that forked workers write into the arrays the caller reads.
    """
    n, d = shape
    if not shared:
        return (np.empty(shape), np.zeros(n, dtype=bool), np.full(n, np.nan),
                np.zeros(n_chunks, dtype=bool), np.full(n_chunks, -1))
    # imported here, as signal is in _reap, so that a process whose marches
    # fork nothing loads neither module: about 50 KB of resident memory
    import mmap

    buf = mmap.mmap(-1, 8 * (n * d + n + n_chunks) + n + n_chunks)
    pts = np.frombuffer(buf, float, n * d).reshape(shape)
    esc_time = np.frombuffer(buf, float, n, 8 * n * d)
    outcome = np.frombuffer(buf, np.int64, n_chunks, 8 * (n * d + n))
    escaped = np.frombuffer(buf, bool, n, 8 * (n * d + n + n_chunks))
    claimed = np.frombuffer(buf, bool, n_chunks, 8 * (n * d + n + n_chunks) + n)
    esc_time[:] = np.nan
    outcome[:] = -1
    return pts, escaped, esc_time, claimed, outcome


def _work_in_child(march, chunks, top, claimed, outcome, parent):
    """The whole life of a forked worker: claim and march chunks top,
    top - 1, ... until one is claimed already, recording march's result in
    outcome for each.  The worker stops at the first chunk whose march
    raised, set a floating-point flag that numpy's settings do not ignore
    or issued a warning, and leaves that chunk and the rest of its share to
    the calling process.  It also stops before a chunk once its parent
    process is no longer parent, and ends with os._exit, whatever happens.
    """
    try:
        flagged = []
        with warnings.catch_warnings(record=True) as caught, _flag_guard(flagged):
            warnings.simplefilter("always")
            for i in range(top, -1, -1):
                if claimed[i] or os.getppid() != parent:
                    break
                claimed[i] = True
                failed_at = march(chunks[i])
                if flagged or caught:
                    break
                outcome[i] = failed_at
    finally:
        os._exit(0)


def _reap(pids, kill):
    """Wait for each worker process to end, killing it first with kill.
    A worker already reaped because SIGCHLD is ignored is passed over."""
    for pid in pids:
        try:
            if kill:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _advance(system, points, t):
    """March a batch of in-domain points forward by time t.

    Returns (positions, escaped, escape_times).  Rows that leave the closed
    domain are frozen at their last in-domain position; their escape time is
    the elapsed time at that frozen position.  Non-escaped rows have nan in
    escape_times.

    A batch of n rows is split into ceil(n / ADVANCE_CHUNK) chunks of equal
    size.  Within a chunk only the rows still inside the domain are
    stepped: an escaped row is written back once and dropped.  Every row is
    stepped by the same arithmetic as it would be alone, so the result does
    not depend on the batch it arrives in, and the chunks are independent
    work.  With more than one chunk and more than one CPU, the calling
    process forks min(CPUs, chunks) - 1 workers with os.fork and marches
    beside them, so numpy's ufuncs run on every CPU with no interpreter
    lock to share.  It claims chunks from the first upwards, and each
    worker claims downwards from the last chunk of its equal share of the
    batch, each until it meets a chunk already claimed.  Workers write
    their rows straight into the result arrays, which lie in one anonymous
    shared mapping, so nothing is copied back.  A batch of one chunk, a
    process on one CPU or a platform without os.fork forks nothing, and the
    calling process claims every chunk through the same loop.  A field
    thus runs in other processes, and a chunk may be marched twice, so a
    field must keep no state and have no side effects.  On Python 3.12 and
    later, os.fork issues a DeprecationWarning in a process with more than
    one OS thread, such as one with an OpenBLAS thread pool; it is
    attributed to this module, so the default warning filters hide it, and
    the fork goes ahead either way.

    A worker stops at the first chunk whose march raised, set a
    floating-point flag that the caller's numpy settings do not ignore or
    issued a warning, and leaves it and the rest of its share undone.
    Once the workers are reaped, the calling process marches, in chunk
    order, every chunk that no worker marched cleanly: one whose worker
    raised, warned, stopped, was killed or was never forked.  The chunks it
    marched first come before all of these in chunk order, so exceptions,
    warnings and numpy's error settings reach the caller as from a march in
    one process.  Every worker is reaped before _advance returns or raises;
    when the calling process unwinds from an exception, it kills its
    workers first.  A worker whose parent has ended stops before its next
    chunk.

    An exception raised in a chunk, such as a FloatingPointError under
    np.errstate, propagates from the first chunk, in chunk order, that
    raises one; the calling process marches no chunk after it, so their
    warnings are not issued.  Otherwise a non-finite value raises
    NumericalError naming the earliest step at which any row still inside
    the domain produced one.

    A chunk runs _step_inside's contiguous bounds test after each step.
    Only when it fails do the isfinite scan and the per-row escape
    bookkeeping run.
    """
    if t < 0:
        raise PreconditionError(f"advance time must be nonnegative, got {t}")
    sizes = _substeps(t, system.step)
    src = np.asarray(points, dtype=float)
    n = src.shape[0]
    if t == 0 or n == 0:
        return src.copy(), np.zeros(n, dtype=bool), np.full(n, np.nan)

    lo = system.domain[:, 0]
    hi = system.domain[:, 1]
    # elapsed time before each step, summed in step order
    starts = list(itertools.accumulate(sizes[:-1], initial=0.0))
    chunks = np.array_split(np.arange(n), -(-n // ADVANCE_CHUNK))
    # the bounds repeated for every row of the first chunk, the largest;
    # shorter and shrunken chunks compare with a leading slice
    lo_rows, hi_rows = _tiled_bounds(system, chunks[0].size)
    workers = min(_cpus(), len(chunks)) - 1 if hasattr(os, "fork") else 0
    pts, escaped, esc_time, claimed, outcome = _batch_arrays(
        src.shape, len(chunks), workers > 0)

    def march(rows):
        # the step at which a row of the chunk still inside turned
        # non-finite, or len(sizes) once every row is written back.  Rows
        # are read from src, which no march writes, and only final values
        # are written, so a march cut short leaves no wrong value behind.
        cur = src[rows]
        k = 0
        while rows.size:
            m = rows.size
            cur, done, nxt = _step_inside(system.field, cur, sizes[k:],
                                          lo_rows[:m], hi_rows[:m])
            k += done
            if nxt is None:
                break
            if not np.isfinite(nxt).all():
                return k
            inside = (nxt >= lo).all(axis=1) & (nxt <= hi).all(axis=1)
            out = rows[~inside]
            pts[out] = cur[~inside]
            escaped[out] = True
            esc_time[out] = starts[k]
            rows = rows[inside]
            cur = nxt[inside]
            k += 1
        pts[rows] = cur
        return len(sizes)

    # the calling process claims chunks 0, 1, ... and each worker claims
    # downwards from the last chunk of its equal share, each until it meets
    # a claimed chunk.  Two that claim one chunk at once both march it and
    # write the same values.
    tops = [len(chunks) * (j + 1) // (workers + 1) - 1 for j in range(1, workers + 1)]
    parent = os.getpid()
    pids = []
    try:
        for top in tops:
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                _work_in_child(march, chunks, top, claimed, outcome, parent)
            pids.append(pid)
        for i in range(len(chunks)):
            if claimed[i]:
                break
            claimed[i] = True
            outcome[i] = march(chunks[i])
    except BaseException:
        _reap(pids, kill=True)
        raise
    _reap(pids, kill=False)
    # every chunk this process has marched has an outcome, so these are the
    # chunks no worker marched cleanly, in chunk order
    for i in np.flatnonzero(outcome < 0):
        outcome[i] = march(chunks[i])
    failed_at = int(outcome.min())
    if failed_at < len(sizes):
        raise NumericalError(
            f"integration of {system.name} produced non-finite values at "
            f"t={starts[failed_at] + sizes[failed_at]:g}")
    return pts, escaped, esc_time


def _sample_block(system, points, dt, n_samples):
    """The next samples of a march of in-domain points at spacing dt.

    points is a C-contiguous float64 (m, d) array.  Returns an (j, m, d)
    array: row i of sample s is points[i] advanced by (s + 1) dt, with the
    steps and arithmetic _advance gives it.  At
    most n_samples samples are taken, and at most ADVANCE_CHUNK // m, so
    that a block stays the size of one _advance chunk; no rows, more than
    ADVANCE_CHUNK rows, or a dt that is negative or NaN, give none.  The
    block stops before the first sample in which any row fails
    _step_inside's bounds test (an escape or a non-finite value) or sets a
    floating-point flag that numpy's error settings do not ignore.  Such a
    sample is left to _advance, which freezes escapes, raises
    NumericalError and warns as it always does; no flag raised here
    reaches the caller.
    """
    m = len(points)
    n_block = min(n_samples, ADVANCE_CHUNK // m) if m and dt >= 0 else 0
    block = np.empty((n_block,) + points.shape)
    if not n_block:
        return block
    sizes = _substeps(dt, system.step)
    lo_rows, hi_rows = _tiled_bounds(system, m)
    flagged = []
    cur = points
    with _flag_guard(flagged):
        for j in range(n_block):
            cur, done, _ = _step_inside(system.field, cur, sizes, lo_rows, hi_rows)
            if done < len(sizes) or flagged:
                return block[:j]
            block[j] = cur
    return block


def _advance_rows(system, points, t):
    """_advance with one time per row: row i gets exactly the position,
    escape flag and escape time of _advance(system, points[i:i+1], t[i]).

    Each group of rows with the same whole-step count makes one _advance
    call; the rows still inside then take their remainder steps as one RK4
    step with a column of step sizes.
    """
    pts = np.array(points, dtype=float, copy=True)
    t = np.asarray(t, dtype=float)
    if t.shape != pts.shape[:1] or not (t >= 0).all():
        raise PreconditionError(f"need one nonnegative time per row, got {t!r:.60}")
    whole, rem = np.array([_schedule(ti, system.step) for ti in t.tolist()]).reshape(-1, 2).T
    whole = whole.astype(np.int64)
    escaped = np.zeros(len(pts), dtype=bool)
    esc_time = np.full(len(pts), np.nan)
    for n in sorted_unique(whole[whole > 0]).tolist():
        rows = np.flatnonzero(whole == n)
        pts[rows], escaped[rows], esc_time[rows] = _advance(system, pts[rows], n * system.step)
    rows = np.flatnonzero((rem > 0) & ~escaped)
    if not rows.size:
        return pts, escaped, esc_time
    nxt = _rk4_step(system.field, pts[rows], rem[rows, None])
    # the elapsed time before a remainder step, summed in step order as in _advance
    elapsed = list(itertools.accumulate([system.step] * int(whole.max()), initial=0.0))
    bad = ~np.isfinite(nxt).all(axis=1)
    if bad.any():
        t_bad = np.take(elapsed, whole[rows[bad]]) + rem[rows[bad]]
        raise NumericalError(
            f"integration of {system.name} produced non-finite values at t={t_bad.min():g}")
    out = ~system.contains(nxt)
    escaped[rows[out]] = True
    esc_time[rows[out]] = np.take(elapsed, whole[rows[out]])
    pts[rows[~out]] = nxt[~out]
    return pts, escaped, esc_time


def _require_inside(system, points):
    """Raise DomainError naming the first point outside the closed domain."""
    outside = ~system.contains(points)
    if outside.any():
        first = np.atleast_2d(points)[outside][0]
        raise DomainError(f"point {first.tolist()} is outside the domain of {system.name}")


def flow_map(system, x, t):
    """Advance a single point by time t.

    Returns the new position, or an Escape if the orbit leaves the closed
    domain before time t elapses.  The starting point must lie inside the
    domain.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (system.dimension,):
        raise PreconditionError(
            f"point must have shape ({system.dimension},), got {x.shape}")
    _require_inside(system, x)
    pts, escaped, esc_time = _advance(system, x[None, :], t)
    if escaped[0]:
        return Escape(point=pts[0], time=float(esc_time[0]))
    return pts[0]


def sample_trajectory(system, x, horizon, sample_step):
    """Sample one orbit at multiples of sample_step up to the horizon."""
    if not math.isfinite(horizon):
        raise PreconditionError(f"horizon must be finite, got {horizon}")
    if sample_step <= 0:
        raise PreconditionError(f"sample_step must be positive, got {sample_step}")
    if not sample_step <= horizon:
        raise PreconditionError(
            f"sample_step ({sample_step}) must not exceed horizon ({horizon})")
    n_samples = int(math.floor(horizon / sample_step + 1e-9)) + 1
    x = np.asarray(x, dtype=float)
    pts = [x]
    current = x
    for k in range(1, n_samples):
        nxt = flow_map(system, current, sample_step)
        if isinstance(nxt, Escape):
            produced = np.array(pts)
            return Trajectory(times=np.arange(k) * sample_step, points=produced,
                              escaped=True, escape_index=k)
        pts.append(nxt)
        current = nxt
    return Trajectory(times=np.arange(n_samples) * sample_step, points=np.array(pts))


def polynomial_field(terms, dimension):
    """Build a vectorized polynomial vector field from a term list.

    Each term is a mapping with "coeffs" (one coefficient per output axis)
    and "exponents" (one nonnegative integer per input axis); the term
    contributes coeffs * prod(x**exponents) to the velocity.  Every entry
    must be a number (an integral float such as 2.0 is an integer exponent);
    booleans and strings are rejected.
    """
    coeffs = []
    expos = []
    for i, term in enumerate(terms):
        try:
            c, e = term["coeffs"], term["exponents"]
        except (KeyError, TypeError) as exc:
            raise IngestionError(f"term {i} needs numeric 'coeffs' and 'exponents'") from exc
        if not all(isinstance(v, (list, tuple)) and len(v) == dimension for v in (c, e)):
            raise IngestionError(
                f"term {i}: coeffs and exponents must each have {dimension} entries")
        c = np.array([number(v, f"term {i} coeffs") for v in c], dtype=float)
        e = np.array([number(v, f"term {i} exponents") for v in e], dtype=float)
        if (e < 0).any() or (e != np.round(e)).any():
            raise IngestionError(f"term {i}: exponents must be nonnegative integers")
        coeffs.append(c)
        expos.append(e)

    def field(pts):
        out = np.zeros_like(pts)
        for c, e in zip(coeffs, expos):
            out += np.prod(pts ** e, axis=1)[:, None] * c
        return out

    return field


def _builtin_specs():
    def saddle(p):
        return p.copy()

    def contract(p):
        return -p

    def doublewell(p):
        return p - p ** 3

    # gradient and hopf fill the columns of their result in place, with
    # the bits of -x, -2 y and x - y - x r2, x + y - y r2
    def gradient(p):
        out = np.empty_like(p)
        np.negative(p[:, 0], out=out[:, 0])
        np.multiply(p[:, 1], -2.0, out=out[:, 1])
        return out

    def hopf(p):
        x = p[:, 0]
        y = p[:, 1]
        r2 = x * x
        r2 += y * y
        out = np.empty_like(p)
        u = out[:, 0]
        v = out[:, 1]
        np.subtract(x, y, out=u)
        u -= x * r2
        np.add(x, y, out=v)
        v -= y * r2
        return out

    return {
        "saddle1d": (1, saddle, [[-1.0, 1.0]], ((0.0,),)),
        "contract1d": (1, contract, [[-2.0, 2.0]], ((0.0,),)),
        "doublewell1d": (1, doublewell, [[-2.0, 2.0]], ((-1.0,), (0.0,), (1.0,))),
        "gradient2d": (2, gradient, [[-2.0, 2.0], [-2.0, 2.0]], ((0.0, 0.0),)),
        "hopf2d": (2, hopf, [[-2.0, 2.0], [-2.0, 2.0]], ((0.0, 0.0),)),
    }


def builtin_names():
    return sorted(_builtin_specs())


def builtin_system(name, step=0.01):
    """Look up one of the named example systems."""
    specs = _builtin_specs()
    if name not in specs:
        known = ", ".join(builtin_names())
        raise CatalogError(f"unknown system '{name}'; available: {known}")
    dim, fn, dom, eq = specs[name]
    return FlowSystem(dimension=dim, field=fn, domain=np.asarray(dom, dtype=float),
                      step=step, name=name, equilibria=eq)


def load_system(path):
    """Read a system description from a JSON file.

    The file either names a built-in under "field" or gives a polynomial
    term list; dimension, domain and step may override built-in defaults.
    """
    def parse(data, where):
        fld = data["field"]
        if isinstance(fld, str):
            base = builtin_system(fld)
            dim = positive(data.get("dimension", base.dimension), f"{where} dimension", int)
            if dim != base.dimension:
                raise IngestionError(
                    f"{where} dimension {dim} does not match built-in '{fld}' "
                    f"({base.dimension})")
            field, equilibria = base.field, base.equilibria
            defaults = {"domain": base.domain.tolist(), "step": base.step, "name": base.name}
        elif isinstance(fld, list):
            dim = positive(data["dimension"], f"{where} dimension", int)
            field, equilibria = polynomial_field(fld, dim), ()
            defaults = {"step": 0.01, "name": "custom"}
        else:
            raise IngestionError(f"{where}: 'field' must be a built-in name or a list of terms")
        data = {**defaults, **data}
        return FlowSystem(dimension=dim, field=field,
                          domain=ingest_domain(data["domain"], where),
                          step=positive(data["step"], f"{where} step"),
                          name=string(data["name"], f"{where} name"), equilibria=equilibria)
    return load_json(path, "system file", parse)
