"""Chain recurrence, Morse decompositions, and attractor-repeller pairs.

Chain recurrent boxes are the nontrivial strongly connected components of
the transition graph restricted to a region.  The Morse graph orders these
classes by reachability and assigns admissible indices with attractors
lowest.  Attractor-repeller pairs correspond to down-sets of that order. An
independent point-level epsilon-chain oracle cross-checks the box picture.

The graph work runs in numpy on the CSR Adjacency of transition.py;
Kalies, Mischaikow and VanderVorst ("An algorithmic approach to chain
recurrence", FoCM 2005) show why cycles of the box graph stand in for
chain recurrence.  morse_graph restricts the graph to the region once, with
n boxes and m edges.  A forward-backward SCC pass labels the classes there;
its trim first drops, in O(n + m), every box that is not in the invariant
part, and then each round costs O(n' + m' log m') on the n' boxes and m'
edges left.  Then one forward and one backward breadth-first search per
class over the whole region give the reach bits, O(k (n + m)) for k
classes.  Every other answer is read off those bits: the invariant part is
the boxes that reach a class and are reached from one, and the
attractor-repeller, alpha and omega regions of a down-set need no further
search.  Each class is named by its smallest box, and the Morse sets are
listed by it, so no artifact depends on the order in which the SCC pass
finds the classes.
"""

from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, PreconditionError
from .flows import _advance
from .grid import BoxSet, checked_count, finite_norm, sorted_unique
from .jsonio import id_labels, ids_json, records, write_json
from .transition import Adjacency, cycle_classes, on_cycle, reachable


def chain_recurrent_boxes(graph, region):
    """Boxes of the region lying in nontrivial SCCs of the restricted graph."""
    return BoxSet(region.ids[on_cycle(graph.restricted(region))])


def _class_bits(adj, classes):
    """Reach and coreach bits of every node of a local Adjacency.

    classes holds one boolean node mask per class.  reach[k, v] says node v
    reaches class k; coreach[k, v] says class k reaches node v.  Class
    members count as both.  One forward and one reverse search per class.
    """
    reach = np.zeros((len(classes), adj.shape[0]), dtype=bool)
    coreach = np.zeros_like(reach)
    for k, members in enumerate(classes):
        coreach[k] = reachable(adj, members)
        reach[k] = reachable(adj.T, members)
    return reach, coreach


class MorseGraph:
    """Recurrent classes of a region with an admissible order.

    morse_sets is listed in admissible order, so morse_sets[i-1] carries
    index i and attractor classes come first; recurrent is their union.
    partial_order holds the reachability pairs (higher index, lower index).
    Every box of the region keeps the sets of classes it reaches and is
    reached from; the invariant part is the boxes that have both.
    """

    def __init__(self, graph, region, morse_sets, partial_order, cls, reach, coreach):
        self.graph = graph
        self.region = region
        self.morse_sets = morse_sets
        self.n = len(morse_sets)
        self.admissible_order = tuple(range(1, self.n + 1))
        self.partial_order = frozenset(partial_order)
        # per region box: its Morse set index (0 for none), and one row of
        # reach and of coreach bits per Morse set
        self._cls = cls
        self._reach = reach
        self._coreach = coreach
        self._inside = reach.any(axis=0) & coreach.any(axis=0)
        self.invariant = BoxSet(region.ids[self._inside])
        self.recurrent = BoxSet(region.ids[cls > 0])
        self._connecting = None

    def _local(self, box):
        """The region position of an invariant-part box, else None."""
        ids = self.region.ids
        i = int(np.searchsorted(ids, box))
        if i < ids.size and ids[i] == box and self._inside[i]:
            return i
        return None

    def class_of(self, box):
        """Admissible index of the box's Morse set, or None."""
        i = self._local(box)
        if i is None or self._cls[i] == 0:
            return None
        return int(self._cls[i])

    def _classes(self, bits, box):
        i = self._local(box)
        if i is None:
            raise PreconditionError(f"box {box} is not in the invariant part")
        return frozenset(int(k) for k in np.flatnonzero(bits[:, i]) + 1)

    def reach_classes(self, box):
        """Indices of Morse sets reachable from an invariant-part box."""
        return self._classes(self._reach, box)

    def coreach_classes(self, box):
        """Indices of Morse sets from which an invariant-part box is reachable."""
        return self._classes(self._coreach, box)

    def _only(self, allowed, backward):
        """reaching_only as a mask over the region's boxes."""
        bits = self._coreach if backward else self._reach
        allowed_bits = np.isin(np.arange(1, self.n + 1), list(allowed))
        ok = bits.any(axis=0) & ~bits[~allowed_bits].any(axis=0)
        recurrent = self._cls > 0
        ok[recurrent] = allowed_bits[self._cls[recurrent] - 1]
        return ok

    def reaching_only(self, allowed, backward=False):
        """Boxes of the region that reach some Morse set and none whose
        index is outside allowed; with backward, boxes that some Morse set
        reaches and none outside allowed does.  A box of a Morse set counts
        by its own index alone."""
        return BoxSet(self.region.ids[self._only(allowed, backward)])

    @property
    def connecting(self):
        """Non-recurrent invariant boxes with their (reach, coreach) class sets."""
        if self._connecting is None:
            local = np.flatnonzero(self._inside & (self._cls == 0))
            indices = range(1, self.n + 1)
            # one row of class bits per connecting box
            reach = self._reach[:, local].T.tolist()
            coreach = self._coreach[:, local].T.tolist()
            self._connecting = {
                box: (frozenset(compress(indices, r)), frozenset(compress(indices, c)))
                for box, r, c in zip(self.region.ids[local].tolist(), reach, coreach)}
        return self._connecting

    def __repr__(self):
        sizes = [len(m) for m in self.morse_sets]
        return f"MorseGraph(n={self.n}, sizes={sizes})"

    def to_json(self, path):
        labels = id_labels(self.graph.grid.n_boxes)
        morse_sets = b",".join(ids_json(m.ids, labels) for m in self.morse_sets)
        data = {
            "n": self.n,
            "admissible_order": list(self.admissible_order),
            "partial_order": sorted([list(p) for p in self.partial_order]),
            "morse_sets": b"[" + morse_sets + b"]",
            "region": ids_json(self.region.ids, labels),
            "invariant": ids_json(self.invariant.ids, labels),
            "connecting": self._connecting_json(labels),
        }
        write_json(path, data)

    def _connecting_json(self, labels):
        """The connecting array "[[b,[r,...],[c,...]],...]" of morse.json,
        box by box, written from the reach and coreach bits.

        One record per (box, class) bit, a box's reach classes and then its
        coreach classes: a comma (but for the first of a list) and the
        class, the first bit of a box also opening it with "[b,[", its
        first coreach bit opening that list with "],[", and its last bit
        closing it with "]]".  A connecting box is in the invariant part,
        so it has at least one bit on each side.
        """
        local = np.flatnonzero(self._inside & (self._cls == 0))
        rows, cols = np.nonzero(np.concatenate(
            [self._reach[:, local].T, self._coreach[:, local].T], axis=1))
        coreach = cols >= self.n
        head = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=head[1:])
        opens = coreach.copy()
        opens[1:] &= ~coreach[:-1]
        tail = np.ones_like(head)
        tail[:-1] = head[1:]
        first = np.flatnonzero(head)
        classes = id_labels(self.n + 1)
        return b"[" + records(rows.size, [
            (b",", first[1:]), (b"[", first),
            (labels.take(self.region.ids[local], axis=0), first), (b",[", first),
            (b",", np.flatnonzero(~head & ~opens)), (b"],[", np.flatnonzero(opens)),
            classes.take(cols % self.n + 1, axis=0), (b"]]", np.flatnonzero(tail))]) + b"]"

    def to_dot(self):
        cover = set(self.partial_order)
        for i, j in self.partial_order:
            for k in range(1, self.n + 1):
                if (i, k) in self.partial_order and (k, j) in self.partial_order:
                    cover.discard((i, j))
        lines = ["digraph morse {"]
        for i, m in enumerate(self.morse_sets, start=1):
            lines.append(f'  M{i} [label="M{i} ({len(m)} boxes)"];')
        for i, j in sorted(cover):
            lines.append(f"  M{i} -> M{j};")
        lines.append("}")
        return "\n".join(lines)


def morse_graph(graph, region):
    """Compute the Morse decomposition of a region of the transition graph.

    Morse sets are the nontrivial SCC classes of the restricted graph; the
    admissible order is a reverse topological order of the condensation with
    ties broken by smallest contained box id.
    """
    adj = graph.restricted(region)
    labels = cycle_classes(adj)
    # each class is labelled by its smallest node, so the sorted labels list
    # the classes by smallest box id, the tie-break of the admissible order
    heads = sorted_unique(labels[labels >= 0])
    classes = [labels == h for h in heads]
    reach, coreach = _class_bits(adj, classes)
    below = [set(np.flatnonzero(coreach[i, heads]).tolist()) - {i}
             for i in range(len(classes))]

    order = []
    assigned = set()
    while len(order) < len(classes):
        pick = min(i for i in range(len(classes))
                   if i not in assigned and below[i] <= assigned)
        order.append(pick)
        assigned.add(pick)

    index_of = {i: k + 1 for k, i in enumerate(order)}
    partial_order = {(index_of[i], index_of[j])
                     for i, lower in enumerate(below) for j in lower}
    morse_sets = [BoxSet(region.ids[classes[i]]) for i in order]
    cls = np.zeros(len(region), dtype=np.int64)
    for k, i in enumerate(order, start=1):
        cls[classes[i]] = k
    return MorseGraph(graph, region, morse_sets, partial_order,
                      cls, reach[order], coreach[order])


class ARPair(NamedTuple):
    """The attractor-repeller pair of a down-set of morse_graph, with the
    one-sided orbit regions alpha and omega (see ar_regions_in_pair)."""

    attractor: BoxSet
    repeller: BoxSet
    alpha: BoxSet
    omega: BoxSet
    down_set: frozenset
    morse_graph: MorseGraph


def _check_down_set(mg, down_set):
    D = frozenset(checked_count(i, "Morse set index") for i in down_set)
    if not D <= set(range(1, mg.n + 1)):
        raise PreconditionError(f"down-set {sorted(D)} has indices outside 1..{mg.n}")
    for hi, lo in mg.partial_order:
        if hi in D and lo not in D:
            raise PreconditionError(
                f"{sorted(D)} is not downward closed: {hi} is in but reaches {lo}")
    return D


def ar_regions_in_pair(mg, down_set):
    """The attractor-repeller pair of mg generated by a down-set.

    A box of the invariant part belongs to a side when every class it
    reaches or is reached from does; a box of a Morse set goes with its own
    class.  alpha holds boxes carrying a full backward orbit of mg.graph in
    mg.region whose sources among the Morse classes all lie in the down-set
    (recurrent boxes qualify through their own class).  omega is the
    forward counterpart for the complementary up-set.  In a finite region
    a box has a full backward orbit exactly when a Morse set reaches it,
    and a full forward orbit exactly when it reaches one.  These
    over-approximate the sets where the pair's Lyapunov function is pinned
    at 0 and 1.
    """
    D = _check_down_set(mg, down_set)
    E = frozenset(range(1, mg.n + 1)) - D
    ids = mg.region.ids
    alpha, omega = mg._only(D, True), mg._only(E, False)
    return ARPair(attractor=BoxSet(ids[mg._only(D, False) & alpha]),
                  repeller=BoxSet(ids[omega & mg._only(E, True)]),
                  alpha=BoxSet(ids[alpha]), omega=BoxSet(ids[omega]),
                  down_set=D, morse_graph=mg)


def enumerate_ar_pairs(mg):
    """All attractor-repeller pairs, one per down-set, canonically ordered.

    Down-sets are ordered by size then lexicographically, so (∅, S) comes
    first and (S, ∅) last; the weights of the complete Lyapunov sum follow
    this enumeration.
    """
    if mg.n > 20:
        raise CapacityError(
            f"{mg.n} Morse sets may generate more than 2**20 down-sets")
    down_sets = []
    for mask in range(1 << mg.n):
        D = frozenset(k + 1 for k in range(mg.n) if mask >> k & 1)
        if all(lo in D for hi, lo in mg.partial_order if hi in D):
            down_sets.append(D)
    down_sets.sort(key=lambda D: (len(D), tuple(sorted(D))))
    return [ar_regions_in_pair(mg, D) for D in down_sets]


def epsilon_chain_oracle(system, points, epsilon, t_min=1.0, t_max=10.0, steps=19):
    """Sample points that admit an epsilon-chain returning to themselves.

    Builds the digraph with an edge x -> y whenever some flow time in the
    probe grid lands the orbit of x within epsilon of y, then returns the
    points lying on cycles.  Chain times start at 1, matching the definition
    of chain recurrence this approximates; escapes contribute no edges.
    """
    if not 0 < epsilon < np.inf:
        raise PreconditionError(f"epsilon must be finite and positive, got {epsilon}")
    if t_min < 1.0:
        raise PreconditionError(f"chain times start at 1, got t_min={t_min}")
    if t_max < t_min:
        raise PreconditionError(f"t_max ({t_max}) must be at least t_min ({t_min})")
    steps = checked_count(steps, "steps")

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    grid_times = np.linspace(t_min, t_max, steps)
    edges = np.zeros((n, n), dtype=bool)

    current, escaped, _ = _advance(system, pts, grid_times[0])
    for k in range(steps):
        live = ~escaped
        if not live.any():
            break
        diff = current[live, None, :] - pts[None, :, :]
        dist = finite_norm(diff, axis=2)
        edges[live] |= dist < epsilon
        if k + 1 < steps:
            # only the rows still inside march on to the next probe time
            current[live], escaped[live], _ = _advance(
                system, current[live], grid_times[k + 1] - grid_times[k])

    rows, cols = np.nonzero(edges)
    return pts[on_cycle(Adjacency(np.searchsorted(rows, np.arange(n + 1)), cols))]


class IntersectionReport(NamedTuple):
    equal: bool
    symmetric_difference: BoxSet
    intersection: BoxSet
    recurrent: BoxSet


def check_R_equals_intersection(mg):
    """Compare the chain recurrent boxes of mg with the intersection of A ∪ A*."""
    pairs = enumerate_ar_pairs(mg)
    intersection = mg.invariant
    for pair in pairs:
        intersection = intersection.intersection(pair.attractor.union(pair.repeller))
    recurrent = mg.recurrent
    diff = intersection.difference(recurrent).union(recurrent.difference(intersection))
    return IntersectionReport(equal=len(diff) == 0,
                              symmetric_difference=diff,
                              intersection=intersection,
                              recurrent=recurrent)
