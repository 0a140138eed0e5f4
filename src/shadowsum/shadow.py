"""Combinatorial shadows, admissible area colorings, and state sums.

A shadow is a decorated 4-valent graph on a surface: faces carry an Euler
characteristic and a gleam, edges carry a color and their two adjacent
faces, and vertices (double points) carry the two strand colors and the
four quadrant faces in the frozen convention: quadrants (j, k, m, n) in
cyclic order with (j, m) and (k, n) opposite, edge e1 between j and k,
edge e2 between j and n.  Gleams and colors, half-integers, are held
doubled, as the ints gleam2, color2, e1_2 and e2_2.  Faces, edges and
vertices are named tuples; a Shadow, a frozen dataclass, checks these
invariants once, when it is built.

Two independent evaluation routes are implemented for double-point-free
links with fundamental colors and must agree exactly:

  * the gleam state sum over admissible area colorings, scaled by
    sin(pi/rbar)^2 (the genus-0 factor sin(pi/rbar)^(2-2g)), and
  * the sum over admissible (level, sign-vector) pairs of products of
    sines of the integer face field xi = l - sum_j s_j ind_j, with a phase
    collecting winding * (xi_left^2 - xi_right^2) per loop.

For an admissible coloring eta the corresponding terms of the two routes
differ by the sign (-1)^(sum_t (chi_t + x_t) * 2 eta_t).  On the sphere
that exponent reduces to (number of loops) + (sum of windings) mod 2
independently of eta, i.e. to one global sign flip per loop of even
circle winding; the pair sum carries that sign explicitly.

The vertex-free state sum is evaluated by message passing over the face
forest in O(F (k+1)^2) for F faces; it rejects any other face graph, so it
and state_sum_general share the face weight but no summation code.
Shadows with vertices are summed over the explicit list of
enumerate_colorings in one pass.  The enumeration colors faces breadth
first over the face graph, each component from its lowest face, and draws
a face's candidates as one step-2 range, the intersection of the fusion
ranges of its neighbours colored before it, narrowed by its self-loops;
no candidate is tested after it is drawn, and only a component's first
face draws from all k+1 colors.  On a face forest, which every
vertex-free shadow of a link is, no partial coloring is abandoned.  The
list is sorted into face id order, so it is lexicographic whatever the
visiting order.  state_sum_general evaluates each distinct 6j-symbol and
each (face, color) weight once per call and accepts the list from a
caller that already holds it: the CLI's eval enumerates once for both the
value and the coloring count it prints.  Both state sums call quantum's
doubled-int kernels, not its spin API, so a memo miss builds no Fraction,
and both evaluate a face's weights through _face_weight with per-call
constants: sin(pi/rbar) once per call and x = gleam - z/2 once per face,
the int quotient (gleam2 - z) / 2, correctly rounded.
Faces of equal (chi, gleam2, z) share one memo of weights (the general
sum) or one row of them (the vertex-free sum).  The 6j kernel is
table-fed: state_sum_general fetches the [n]! table once per call, as far
as its colorings can read it, and passes it to every 6j-symbol it
evaluates; it keeps each vertex's strand colors and quadrants as one
tuple.  The bijection check sets the same coloring list against the
images of the pair walk's records.  The pair route keeps its own
enumeration and shares only the level, the doubled colors and the
exception types with either state sum.

The pair route costs about its output.  _pair_walk walks the sign
vectors depth first once per level l = 1..k+1, the loops ancestor first
in the nesting forest.  Each step sets one face's field, final from then
on: its parent face's field (l for the outer face) plus or minus one, one
int addition.  The walk drops a branch as soon as its field leaves
{1, ..., k+1}; every other prefix extends, so a node costs O(1), a leaf
O(n) at most, and the walk O(n) per pair, where filtering
all 2^n (k+1) candidates cost O(2^n (k+1) F n): a nested chain of 50
circles at k = 1 keeps one prefix per depth and level and has 2 pairs, in
any order.  Each step also carries the pair's integer phase exponent, one
int addition of its face's c x^2, and its amplitude, multiplying in its
own face's sin(pi x / rbar)^chi, both read from tables over x in
{1, ..., k+1}; each phase comes from a memo on its exponent.  The value is
bit-identical to the per-pair formula by one order rule: when the loops
are walked in index order, the factors are multiplied and the pairs come
out in the formula's order; otherwise, for a file that lists a loop
before an ancestor, each leaf multiplies its amplitude anew in face-index
order and each level's terms are held and added in sign-vector order.
wlo_dpfree_pairsum and the CLI's wlo take the value from that one walk,
the CLI its pair count too.  With a record list the walk appends each
pair's (l, sign key, xi) in walk order: enumerate_pairs sorts them into
pair order before building its AdmissiblePair list, and check_bijection
reads each pair's coloring off them unsorted, with no AdmissiblePair and
no sign vector built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import (
    ColorOutOfRange,
    HasVertices,
    InvariantViolation,
    MissingGleams,
    PreconditionError,
    UnsupportedColor,
)
from .geometry import FaceComplex, Link, gleams_dpfree, winding_s1
from .quantum import (
    Level,
    _qfactorials,
    _sixj_doubled,
    _u_exponent_doubled,
    _v_dim_doubled,
)

__all__ = [
    "ShadowFace",
    "ShadowEdge",
    "ShadowVertex",
    "Shadow",
    "AreaColoring",
    "AdmissiblePair",
    "BijectionReport",
    "check_shadow",
    "euler_identity_holds",
    "shadow_from_dpfree",
    "enumerate_colorings",
    "state_sum_general",
    "state_sum_dpfree",
    "enumerate_pairs",
    "coloring_of_pair",
    "check_bijection",
    "wlo_dpfree_pairsum",
    "wlo_dpfree_final",
]

# An area coloring is a tuple of doubled colors (2*eta), indexed by face id.
AreaColoring = tuple


class ShadowFace(NamedTuple):
    chi: int
    gleam2: int | None  # twice the gleam
    z: int = 0


class ShadowEdge(NamedTuple):
    color2: int
    left: int
    right: int


class ShadowVertex(NamedTuple):
    e1_2: int
    e2_2: int
    j: int
    k: int
    m: int
    n: int

    @property
    def quadrants(self) -> tuple[int, int, int, int]:
        return (self.j, self.k, self.m, self.n)


@dataclass(frozen=True)
class Shadow:
    faces: tuple[ShadowFace, ...]
    edges: tuple[ShadowEdge, ...]
    vertices: tuple[ShadowVertex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "faces", tuple(self.faces))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        check_shadow(self)


def check_shadow(shadow: Shadow) -> None:
    """Structural invariants: valid face references, consistent double-point
    counts, gleams held as doubled ints."""
    nf = len(shadow.faces)
    for i, e in enumerate(shadow.edges):
        if not (0 <= e.left < nf and 0 <= e.right < nf):
            raise InvariantViolation(f"edge {i} references a missing face")
        if e.color2 < 0:
            raise InvariantViolation(f"edge {i} has negative color")
    for i, v in enumerate(shadow.vertices):
        for f in v.quadrants:
            if not 0 <= f < nf:
                raise InvariantViolation(f"vertex {i} references a missing face")
        if v.e1_2 < 0 or v.e2_2 < 0:
            raise InvariantViolation(f"vertex {i} has a negative strand color")
    touch = [0] * nf
    for v in shadow.vertices:
        for f in set(v.quadrants):
            touch[f] += 1
    for t, face in enumerate(shadow.faces):
        if face.z < 0:
            raise InvariantViolation(f"face {t} has negative double-point count")
        if face.z != touch[t]:
            raise InvariantViolation(
                f"face {t} declares z={face.z} but touches {touch[t]} double points")
        g2 = face.gleam2
        if g2 is not None and (isinstance(g2, bool) or not isinstance(g2, int)):
            raise InvariantViolation(f"face {t} gleam2 {g2!r} is not an int")


def euler_identity_holds(shadow: Shadow) -> bool:
    """Euler count for spherical shadows: faces alone sum to 2 when the
    edges are closed curves, V - E + sum(chi) = 2 when they are arcs
    between double points."""
    total_chi = sum(f.chi for f in shadow.faces)
    if shadow.vertices:
        return len(shadow.vertices) - len(shadow.edges) + total_chi == 2
    return total_chi == 2


def shadow_from_dpfree(link: Link, fc: FaceComplex) -> Shadow:
    """Vertex-free shadow of a double-point-free link: one edge per loop
    with the faces on its two sides, and the gleams of `gleams_dpfree`."""
    faces = tuple(ShadowFace(chi=chi, gleam2=2 * g, z=0)
                  for chi, g in zip(fc.chi, gleams_dpfree(link, fc)))
    edges = tuple(
        ShadowEdge(color2=lp.color2, left=fc.loop_sides[j][0], right=fc.loop_sides[j][1])
        for j, lp in enumerate(link.loops)
    )
    return Shadow(faces=faces, edges=edges, vertices=())


def enumerate_colorings(shadow: Shadow, level: Level) -> list[AreaColoring]:
    """All area colorings admissible with the edge colors, as tuples of
    doubled colors indexed by face id, in lexicographic order.

    Faces are colored in breadth-first order over the face graph, each
    connected component from its lowest face.  A face's candidates are
    the intersection of the fusion ranges of its neighbours colored
    before it, one step-2 range: across an edge of color c, a neighbour
    of color tg admits |tg - c| .. min(tg + c, 2k - tg - c) in the parity
    of tg + c, so two neighbours of different parity admit nothing.  A
    self-loop of even color c admits c/2 .. k - c/2, one of odd color
    nothing, whatever the other faces' colors.  No candidate is tested
    after it is drawn, and the last face's range is appended in one pass.
    Only a component's first face draws from all of 0 .. k (less its
    self-loops' bounds).  On a face forest every candidate extends, so the
    walk costs O(F) per coloring.  The list is then sorted into
    lexicographic order by face id, a single pass when the visiting order
    is ascending.
    """
    nf = len(shadow.faces)
    if nf == 0:
        return [()]
    km = level.k
    k2 = 2 * km
    adjacent = [[] for _ in range(nf)]
    # each face's color bounds from its self-loops
    lows, highs = [0] * nf, [km] * nf
    odd_loop = False
    for e in shadow.edges:
        c2, f = e.color2, e.left
        if not 0 <= c2 <= km:
            raise ColorOutOfRange(
                f"edge color {Fraction(c2, 2)} outside color set of level {km}")
        if e.right != f:
            adjacent[f].append((e.right, c2))
            adjacent[e.right].append((f, c2))
        elif c2 & 1:
            odd_loop = True
        else:
            lows[f] = max(lows[f], c2 >> 1)
            highs[f] = min(highs[f], km - (c2 >> 1))
    if odd_loop:
        return []
    # breadth-first visiting order; pos[f] is face f's place in it
    order = []
    pos = [nf] * nf
    head = 0
    for start in range(nf):
        if pos[start] < nf:
            continue
        pos[start] = len(order)
        order.append(start)
        while head < len(order):
            for g, _ in adjacent[order[head]]:
                if pos[g] == nf:
                    pos[g] = len(order)
                    order.append(g)
            head += 1
    # per place: the (neighbour, edge color) pairs of its face's
    # neighbours colored before it, and the face's self-loop bounds
    plan = [([gc for gc in adjacent[f] if pos[gc[0]] < i], lows[f], highs[f])
            for i, f in enumerate(order)]
    assignment = [0] * nf

    def candidates(i: int):
        near, lo, hi = plan[i]
        if not near:
            return range(lo, hi + 1)
        parity = -1
        for g, c2 in near:
            tg = assignment[g]
            top = tg + c2
            if parity != top & 1:
                if parity >= 0:
                    return ()  # two fusion ranges of different parity
                parity = top & 1
            bottom = abs(tg - c2)
            if bottom > lo:
                lo = bottom
            if top > k2 - top:
                top = k2 - top
            if top < hi:
                hi = top
        return range(lo + ((lo ^ parity) & 1), hi + 1, 2)

    if nf == 1:
        return [(t,) for t in candidates(0)]
    last = order[-1]
    out: list[AreaColoring] = []
    # depth-first with an explicit stack: stack[i] holds the candidates of
    # the face at place i not tried yet, so a shadow of any size needs no
    # recursion; the last face's candidates are never stacked
    stack = [iter(candidates(0))]
    while stack:
        i = len(stack) - 1
        for t in stack[i]:
            break
        else:
            stack.pop()  # the face at place i has no candidates left
            continue
        assignment[order[i]] = t
        if i + 2 < nf:
            stack.append(iter(candidates(i + 1)))
            continue
        for t in candidates(nf - 1):
            assignment[last] = t
            out.append(tuple(assignment))
    out.sort()
    return out


def _modified_gleam(face: ShadowFace) -> float:
    """x = gleam - z/2, the int quotient (gleam2 - z) / 2, correctly
    rounded."""
    if face.gleam2 is None:
        raise MissingGleams("state sum requires a gleam on every face")
    return (face.gleam2 - face.z) / 2


def _face_weight(r: int, s1: float, chi: int, x: float, t: int) -> complex:
    """v^chi * exp(2 x u) of a face at doubled color t, at rbar = r with
    s1 = sin(pi / r) and x the face's modified gleam."""
    if not 0 <= t <= r - 2:
        raise ColorOutOfRange(f"face color {Fraction(t, 2)} outside color set of level {r - 2}")
    amp = _v_dim_doubled(r, s1, t) ** chi
    return amp * cmath.exp(2.0 * x * _u_exponent_doubled(r, t))


def state_sum_general(shadow: Shadow, level: Level,
                      colorings: list[AreaColoring] | None = None) -> complex:
    """State sum over admissible colorings (enumerated here unless the
    caller already holds enumerate_colorings' result): one 6j-symbol per
    double point and one v^chi * exp(2 * modified-gleam * u) factor per face.
    Missing gleams and strand colors above the level raise up front.  A
    caller's face color outside 0 .. k raises ColorOutOfRange (a 6j-symbol
    with one is 0), a coloring of the wrong length PreconditionError.

    Each distinct 6j argument and (chi, gleam2, z, color) face weight is
    evaluated once per call.  Terms are built in a fixed factor order and
    added in the colorings' order, so the value does not depend on the memos.
    """
    faces = shadow.faces
    # each face's chi and modified gleam, the constants of its weight
    consts = [(f.chi, _modified_gleam(f)) for f in faces]
    top = max((c2 for v in shadow.vertices for c2 in (v.e1_2, v.e2_2)), default=0)
    if top > level.k:
        raise ColorOutOfRange(
            f"strand color {Fraction(top, 2)} outside color set of level {level.k}")
    if colorings is None:
        colorings = enumerate_colorings(shadow, level)
    km = level.k
    r = level.rbar
    s1 = math.sin(math.pi / r)
    vertices = [(v.e1_2, v.j, v.k, v.e2_2, v.m, v.n) for v in shadow.vertices]
    if vertices and colorings:
        # the [n]! table, fetched once: a 6j-symbol reads it up to half its
        # color sum plus one (_qfactorials stops at [k+1]!)
        hi = max(chain.from_iterable(colorings), default=0)
        strands = max(e1 + e2 for e1, _, _, e2, _, _ in vertices)
        qf = _qfactorials(level, (strands + 4 * hi) // 2 + 1)
    sixjs: dict[tuple, float] = {}
    # one memo of weights by color per distinct (chi, gleam2, z)
    shared: dict[tuple, dict] = {}
    memos = [shared.setdefault((f.chi, f.gleam2, f.z), {}) for f in faces]
    nf = len(faces)
    total = 0j
    for col in colorings:
        if len(col) != nf:
            raise PreconditionError(f"coloring {col} does not color the {nf} faces")
        vertex_part = 1.0
        for e1, j, k, e2, m, n in vertices:
            ts = (e1, col[j], col[k], e2, col[m], col[n])
            s = sixjs.get(ts)
            if s is None:
                s = sixjs[ts] = _sixj_doubled(qf, km, ts)
            vertex_part *= s
        if vertex_part == 0.0:  # no face weight reads its colors, so check them here
            if min(col) < 0 or max(col) > km:
                raise ColorOutOfRange(f"coloring {col} has a face color outside color set "
                                      f"of level {km}")
            continue
        term = complex(vertex_part)
        for t, memo, (chi, x) in zip(col, memos, consts):
            w = memo.get(t)
            if w is None:
                w = memo[t] = _face_weight(r, s1, chi, x, t)
            term *= w
        total += term
    return total


def state_sum_dpfree(shadow: Shadow, level: Level) -> complex:
    """Vertex-free state sum: product over faces of v^chi * exp(2 x u),
    summed over admissible colorings by message passing over the face tree.

    The faces and edges of a vertex-free shadow on the sphere form a forest
    (disjoint circles always separate), so the sum factors: each face
    passes up m_f(t) = w_f(t) * prod_children sum_{t'} m_g(t'), with t'
    running over the colors admissible with t and the child edge's color.
    A face graph with a cycle cannot come from a link and raises
    PreconditionError; the general state sum takes any shadow.
    """
    if shadow.vertices:
        raise HasVertices("state sum for double-point-free links takes no vertices")
    nf = len(shadow.faces)
    km = level.k
    adjacent = [[] for _ in range(nf)]
    for e in shadow.edges:
        if not 0 <= e.color2 <= km:
            raise ColorOutOfRange(
                f"edge color {Fraction(e.color2, 2)} outside color set of level {km}")
        adjacent[e.left].append((e.right, e.color2))
        adjacent[e.right].append((e.left, e.color2))

    # depth-first order of each component from its lowest face: every face
    # comes after its parent, so reversed order finishes children first
    orders = []
    seen = [False] * nf
    for start in range(nf):
        if seen[start]:
            continue
        seen[start] = True
        order, stack = [], [(start, -1, 0)]
        while stack:
            f, parent, c2 = stack.pop()
            order.append((f, parent, c2))
            for g, cg in adjacent[f]:
                if not seen[g]:
                    seen[g] = True
                    stack.append((g, f, cg))
        orders.append(order)
    # a graph is a forest iff it has (vertices - components) edges
    if len(shadow.edges) != nf - len(orders):
        raise PreconditionError("vertex-free state sum requires a face forest")

    colors = range(km + 1)
    r = level.rbar
    s1 = math.sin(math.pi / r)
    # one row of weights per distinct (chi, gleam2, z), shared by the faces
    # of that key: a message is rebound below, never changed in place
    rows: dict[tuple, list] = {}
    message = []
    for face in shadow.faces:
        key = (face.chi, face.gleam2, face.z)
        row = rows.get(key)
        if row is None:
            x = _modified_gleam(face)
            row = rows[key] = [_face_weight(r, s1, face.chi, x, t) for t in colors]
        message.append(row)
    total = complex(1.0)
    for order in orders:
        for f, parent, c2 in reversed(order[1:]):
            m = message[f]
            # for parent color t, sum over the colors t' of f admissible with (c2, t)
            up = [sum(m[abs(t - c2):min(t + c2, 2 * km - t - c2) + 1:2]) for t in colors]
            message[parent] = [x * y for x, y in zip(message[parent], up)]
        total *= sum(message[order[0][0]])
    return total


class AdmissiblePair(NamedTuple):
    """A level index l and per-loop signs whose face field xi stays in
    {1, ..., k+1}."""

    l: int
    signs: tuple[int, ...]
    xi: tuple[int, ...]  # indexed by face id


def _pair_walk(link: Link, level: Level, fc: FaceComplex,
               record: list | None = None) -> tuple[complex, int]:
    """The pair sum and the number of admissible pairs, from one walk of
    the sign vectors per level l = 1..k+1.  With `record`, each pair's
    (l, sign key, xi) is appended to it in walk order; bit n-1-j of the
    sign key is set iff s_j = +1.

    The loops are taken ancestor first: in index order, each loop right
    after its ancestors in fc.parent not yet taken.  ind_j is loop j's
    orientation o_j (+1 iff face j is its left face) on face j and the
    faces inside it, and 0 elsewhere, so at level l face j's field is its
    parent face's (l for the outer face) less s_j o_j: each step sets one
    face's field, final from then on, with one int addition, and drops
    the branch unless it lies in {1, ..., k+1}.  Every kept prefix extends
    (of x - 1 and x + 1, for x in {1, ..., k+1} and k >= 1, at least one
    is in range), so the walk costs O(n) per pair.  Each step adds its
    face's part c_f xi_f^2 of the integer phase exponent and multiplies
    the amplitude by its own face's sin(pi xi_f / rbar)^chi_f, and a leaf
    by the outer face's.  One order rule makes the value bit-identical to
    the per-pair formula, which multiplies in face-index order and adds
    in pair order.  When the walk order is index order, which a file that
    lists every loop after its ancestors gives, both hold as walked: each
    level's pairs come out in sign-vector order.  Otherwise a leaf
    recomputes its amplitude in face-index order and the walk holds the
    level's (sign key, term) and adds the terms sorted by sign key.
    """
    for j, lp in enumerate(link.loops):
        if lp.color2 != 1:
            raise UnsupportedColor(
                f"pair enumeration requires the fundamental color 1/2 on loop {j}")
    n = len(link.loops)
    kp1 = level.k + 1
    r = level.rbar
    winds = [winding_s1(lp) for lp in link.loops]
    parity = -1.0 if sum(1 for w in winds if w % 2 == 0) % 2 else 1.0
    # s = sum_j w_j (xi(left_j)^2 - xi(right_j)^2) = sum_f c_f xi_f^2 with
    # c_f = sum_j w_j ([left_j = f] - [right_j = f])
    coef = [0] * (n + 1)
    for w, (left, right) in zip(winds, fc.loop_sides):
        coef[left] += w
        coef[right] -= w
    # sin(pi x / rbar)^chi_f and c_f x^2 for every face f and face field
    # value x in {1, ..., k+1}, indexed by x
    xs = range(1, kp1 + 1)
    amps = [[None] + [math.sin(math.pi * x / r) ** chi for x in xs] for chi in fc.chi]
    squares = [[None] + [c * x * x for x in xs] for c in coef]
    order, taken = [], [False] * n
    for j in range(n):
        path = []
        while j is not None and not taken[j]:
            taken[j] = True
            path.append(j)
            j = fc.parent[j]
        order += reversed(path)
    reordered = order != list(range(n))
    # per step: its parent face, its face, its face's tables, and its
    # children as (field change, sign key change), s = +1 first so that
    # s = -1 is popped first, as itertools.product orders them
    steps = []
    for j in order:
        o = 1 if fc.loop_sides[j][0] == j else -1
        up = n if fc.parent[j] is None else fc.parent[j]
        steps.append((up, j, amps[j], squares[j], ((-o, 1 << (n - 1 - j)), (o, 0))))
    phases: dict[int, complex] = {}
    xi = [0] * (n + 1)
    total = 0j
    count = 0
    for l in xs:
        outer = amps[n][l]
        held = []
        # a node: the step it takes next, the face it set to x, the
        # amplitude and phase exponent so far, and its sign key
        stack = [(0, n, l, 1.0, squares[n][l], 0)]
        while stack:
            i, f, x, amp, s, key = stack.pop()
            xi[f] = x
            if i == n:
                phase = phases.get(s)
                if phase is None:
                    phase = phases[s] = cmath.exp(complex(0.0, -math.pi * s / (2.0 * r)))
                count += 1
                if record is not None:
                    record.append((l, key, tuple(xi)))
                if reordered:  # amp is in walk order, the formula's is face order
                    amp = 1.0
                    for row, v in zip(amps, xi):
                        amp *= row[v]
                    held.append((key, parity * amp * phase))
                else:
                    total += parity * (amp * outer) * phase
                continue
            up, j, am, sq, children = steps[i]
            xp = xi[up]
            for dx, dkey in children:
                y = xp + dx
                if 0 < y <= kp1:
                    stack.append((i + 1, j, y, amp * am[y], s + sq[y], key + dkey))
        held.sort()  # by sign key, unique within a level
        for _, term in held:
            total += term
    return total, count


def enumerate_pairs(link: Link, level: Level, fc: FaceComplex) -> list[AdmissiblePair]:
    """All (l, sign-vector) pairs with xi = l - sum_j s_j ind_j mapping every
    face into {1, ..., k+1}, ordered by l and then by sign vector in
    itertools.product order: `_pair_walk`'s records sorted by (l, sign
    key), which moves records only for a file that lists a loop before an
    ancestor.  Besides the output, the walk holds at most n + 1 nodes and,
    for such a file, one level's terms.
    """
    record: list = []
    _pair_walk(link, level, fc, record)
    record.sort()  # (l, sign key) is unique, so xi is never compared
    shifts = range(len(link.loops) - 1, -1, -1)
    return [AdmissiblePair(l, tuple([1 if key >> b & 1 else -1 for b in shifts]), xi)
            for l, key, xi in record]


def coloring_of_pair(pair: AdmissiblePair) -> AreaColoring:
    """Area coloring determined by a pair: eta = (xi - 1)/2 on every face."""
    return tuple([x - 1 for x in pair.xi])


class BijectionReport(NamedTuple):
    pairs_count: int
    colorings_count: int
    injective: bool
    surjective: bool
    missing: tuple
    extra: tuple

    @property
    def ok(self) -> bool:
        return self.injective and self.surjective and not self.missing and not self.extra


def check_bijection(link: Link, level: Level, fc: FaceComplex) -> BijectionReport:
    """Verify that pair -> coloring is a bijection onto the admissible
    colorings of the shadow with all edges colored 1/2.  The images are
    read off `_pair_walk`'s records, as `coloring_of_pair` maps them; no
    AdmissiblePair is built."""
    record: list = []
    _pair_walk(link, level, fc, record)
    images = {tuple([x - 1 for x in xi]) for _, _, xi in record}
    shadow = shadow_from_dpfree(link, fc)
    admissible = set(enumerate_colorings(shadow, level))
    return BijectionReport(
        pairs_count=len(record),
        colorings_count=len(admissible),
        injective=len(images) == len(record),
        surjective=admissible <= images,
        missing=tuple(sorted(admissible - images)),
        extra=tuple(sorted(images - admissible)),
    )


def wlo_dpfree_pairsum(link: Link, level: Level, fc: FaceComplex) -> complex:
    """Loop-observable value as a sum over admissible pairs, from one walk
    (`_pair_walk`).

    Each pair contributes prod_t sin(pi xi_t / rbar)^chi_t times the phase
    exp(-(pi i/rbar) * (1/2) * sum_j wind_j (xi(left_j)^2 - xi(right_j)^2));
    left_j is the face where ind_j is larger by one, and the swap-symmetric
    form makes the displacement side irrelevant.  The global parity factor
    (one sign per even-winding loop) keeps this route equal to
    wlo_dpfree_final term-for-term.
    """
    return _pair_walk(link, level, fc)[0]


def wlo_dpfree_final(link: Link, level: Level, fc: FaceComplex) -> complex:
    """Closed form of the loop observable on the sphere: sin(pi/rbar)^2
    times the vertex-free state sum of the link's shadow."""
    shadow = shadow_from_dpfree(link, fc)
    scale = math.sin(math.pi / level.rbar) ** 2
    return scale * state_sum_dpfree(shadow, level)
