import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

import shadowsum as ss
from shadowsum.errors import (
    ColorOutOfRange,
    HasVertices,
    InvariantViolation,
    MissingGleams,
    PreconditionError,
    UnsupportedColor,
)
from shadowsum.quantum import Level, sixj
from shadowsum.shadow import _face_weight, _modified_gleam
from shadowsum.random_links import polygon_circle, random_dpfree_link

from conftest import (
    enumerate_pairs_oracle,
    face_of_point_oracle,
    face_weight_oracle,
    pairsum_oracle,
    sample_point_oracle,
    sixj_doubled_oracle,
)

F = Fraction
TAU = 2 * math.pi


def circle_link(winding=0, level=1, color2=1):
    lp = polygon_circle(0, 0, 1.0, 16, winding=winding, theta0=0.5, phase=0.13,
                        color2=color2)
    return ss.Link((lp,), t0=0.0, level=level)


def empty_link(level=1):
    return ss.Link((), t0=0.0, level=level)


def dpfree_shadow(link):
    fc = ss.face_complex(link)
    return ss.shadow_from_dpfree(link, fc), fc


def brute_force_colorings(shadow, level):
    """Exhaustive filter over all color assignments, with an independently
    written admissibility test."""
    def ok(ti, tj, tk):
        return ((ti + tj + tk) % 2 == 0
                and ti + tj + tk <= 2 * level.k
                and abs(ti - tj) <= tk <= ti + tj)

    out = []
    for col in itertools.product(range(level.k + 1), repeat=len(shadow.faces)):
        if all(ok(e.color2, col[e.left], col[e.right]) for e in shadow.edges):
            out.append(col)
    return out


def brute_force_state_sum(shadow, level):
    """State sum over brute_force_colorings: sixj at each double point, and
    the face weights v^chi * exp(2 x u) with modified gleam x = gleam - z/2
    written out from their definitions."""
    r = level.k + 2

    def weight(face, t):
        x = face.gleam2 / 2 - face.z / 2
        v = (-1) ** t * math.sin((t + 1) * math.pi / r) / math.sin(math.pi / r)
        u = math.pi * (t / 2 - t * (t + 2) / (4 * r))
        return v ** face.chi * complex(math.cos(2 * x * u), math.sin(2 * x * u))

    total = 0j
    for col in brute_force_colorings(shadow, level):
        term = 1 + 0j
        for v in shadow.vertices:
            term *= sixj(level, F(v.e1_2, 2), F(col[v.j], 2), F(col[v.k], 2),
                         F(v.e2_2, 2), F(col[v.m], 2), F(col[v.n], 2))
        for t, face in zip(col, shadow.faces):
            term *= weight(face, t)
        total += term
    return total


def term_by_term_sum(shadow, level, colorings):
    """The state sum over `colorings` in their order, each term built as
    complex(product of 6j-symbols) times the face weights in face order;
    the 6j-symbols and face weights come from the oracles, not from the
    kernels under test."""
    total = 0j
    for col in colorings:
        vertex_part = 1.0
        for v in shadow.vertices:
            vertex_part *= sixj_doubled_oracle(level, v.e1_2, col[v.j], col[v.k],
                                               v.e2_2, col[v.m], col[v.n])
        if vertex_part == 0.0:
            continue
        term = complex(vertex_part)
        for t, face in zip(col, shadow.faces):
            term *= face_weight_oracle(level, face, t)
        total += term
    return total


def random_vertex_shadow(rng, k):
    """A well-formed shadow with 1-3 double points on at most four faces.

    Each double point brings the four edges that border its quadrants
    (e1 between j and k and between m and n, e2 between j and n and
    between k and m), so its 6j-symbol is admissible on every admissible
    coloring; quadrants may repeat, which gives self-loop edges.  Up to two
    further random edges are added, faces may be left without edges, and
    z counts the double points each face touches.
    """
    nf = rng.randint(1, 4)
    vertices, edges = [], []
    for _ in range(rng.randint(1, 3)):
        e1, e2 = rng.randint(0, k), rng.randint(0, k)
        j, kq, m, n = (rng.randrange(nf) for _ in range(4))
        vertices.append(ss.ShadowVertex(e1_2=e1, e2_2=e2, j=j, k=kq, m=m, n=n))
        edges += [ss.ShadowEdge(e1, j, kq), ss.ShadowEdge(e1, m, n),
                  ss.ShadowEdge(e2, j, n), ss.ShadowEdge(e2, kq, m)]
    for _ in range(rng.randint(0, 2)):
        edges.append(ss.ShadowEdge(rng.randint(0, k), rng.randrange(nf), rng.randrange(nf)))
    touch = [sum(f in v.quadrants for v in vertices) for f in range(nf)]
    faces = tuple(ss.ShadowFace(chi=rng.randint(-1, 2), gleam2=rng.randint(-4, 4),
                                z=touch[f])
                  for f in range(nf))
    return ss.Shadow(faces=faces, edges=tuple(edges), vertices=tuple(vertices))


def random_colored_vertex_shadow(rng, k):
    """A shadow shaped like those of `random_vertex_shadow` that has at
    least one admissible coloring: a face coloring is drawn first, then
    each edge color from the fusion range of the colors of the faces the
    edge joins, for a double point's e1 of both (j, k) and (m, n) and for
    its e2 of both (j, n) and (k, m).  Faces whose ranges leave no color
    are drawn again.
    """
    def fusion(a, b):
        return set(range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2))

    nf = rng.randint(1, 4)
    col = [rng.randint(0, k) for _ in range(nf)]

    def draw(count, *groups):
        # `count` faces and, per group of index pairs, a color in the fusion
        # range of every pair of the group
        while True:
            fs = [rng.randrange(nf) for _ in range(count)]
            allowed = [sorted(set.intersection(*(fusion(col[fs[a]], col[fs[b]]) for a, b in g)))
                       for g in groups]
            if all(allowed):
                return fs, [rng.choice(c) for c in allowed]

    vertices, edges = [], []
    for _ in range(rng.randint(1, 3)):
        (j, kq, m, n), (e1, e2) = draw(4, [(0, 1), (2, 3)], [(0, 3), (1, 2)])
        vertices.append(ss.ShadowVertex(e1_2=e1, e2_2=e2, j=j, k=kq, m=m, n=n))
        edges += [ss.ShadowEdge(e1, j, kq), ss.ShadowEdge(e1, m, n),
                  ss.ShadowEdge(e2, j, n), ss.ShadowEdge(e2, kq, m)]
    for _ in range(rng.randint(0, 2)):
        (left, right), (c,) = draw(2, [(0, 1)])
        edges.append(ss.ShadowEdge(c, left, right))
    touch = [sum(f in v.quadrants for v in vertices) for f in range(nf)]
    faces = tuple(ss.ShadowFace(chi=rng.randint(-1, 2), gleam2=rng.randint(-4, 4),
                                z=touch[f])
                  for f in range(nf))
    return ss.Shadow(faces=faces, edges=tuple(edges), vertices=tuple(vertices))


def relabel_faces(shadow, perm):
    """The same shadow with face perm[i] renamed i."""
    new = {old: i for i, old in enumerate(perm)}
    return ss.Shadow(
        faces=tuple(shadow.faces[p] for p in perm),
        edges=tuple(ss.ShadowEdge(e.color2, new[e.left], new[e.right]) for e in shadow.edges),
        vertices=tuple(ss.ShadowVertex(v.e1_2, v.e2_2, new[v.j], new[v.k], new[v.m], new[v.n])
                       for v in shadow.vertices))


def disjoint_union(a, b):
    """Shadow a beside shadow b, whose face ids follow a's."""
    nf = len(a.faces)
    return ss.Shadow(
        faces=a.faces + b.faces,
        edges=a.edges + tuple(ss.ShadowEdge(e.color2, e.left + nf, e.right + nf)
                              for e in b.edges),
        vertices=a.vertices + tuple(
            ss.ShadowVertex(v.e1_2, v.e2_2, v.j + nf, v.k + nf, v.m + nf, v.n + nf)
            for v in b.vertices))


def visiting_order(shadow):
    """Breadth-first order of the faces over the face graph, each component
    from its lowest face, with the set of component starts."""
    adjacent = [[] for _ in shadow.faces]
    for e in shadow.edges:
        adjacent[e.left].append(e.right)
        adjacent[e.right].append(e.left)
    order, starts = [], set()
    for start in range(len(shadow.faces)):
        if start in order:
            continue
        starts.add(start)
        queue = [start]
        order.append(start)
        while queue:
            f = queue.pop(0)
            for g in adjacent[f]:
                if g not in order:
                    order.append(g)
                    queue.append(g)
    return order, starts


def walk_events(shadow, level):
    """Which of the enumeration's narrowing rules a shadow exercises, by an
    exhaustive walk in `visiting_order`: an odd self-loop; a parity clash,
    two neighbours colored earlier whose fusion ranges differ in parity;
    and a range narrowed by a second neighbour, an intersection of the
    same-parity fusion ranges of two or more neighbours colored earlier
    that is smaller than each one's range.  The walk reaches every
    prefix that is admissible on the edges among its faces."""
    k = level.k
    events = set()
    if any(e.left == e.right and e.color2 % 2 for e in shadow.edges):
        events.add("odd self-loop")
    order, _ = visiting_order(shadow)
    place = {f: i for i, f in enumerate(order)}

    def fusion(tg, c):
        return set(range(abs(tg - c), min(tg + c, 2 * k - tg - c) + 1, 2))

    def admits(col, e):
        a, b = col[e.left], col[e.right]
        c = e.color2
        return (a + b + c) % 2 == 0 and a + b + c <= 2 * k and abs(a - b) <= c <= a + b

    def walk(col, i):
        if i == len(order):
            return
        f = order[i]
        near = [(e.right if e.left == f else e.left, e.color2) for e in shadow.edges
                if e.left != e.right and f in (e.left, e.right)
                and place[e.right if e.left == f else e.left] < i]
        ranges = [fusion(col[g], c) for g, c in near]
        if len({(col[g] + c) % 2 for g, c in near}) > 1:
            events.add("parity clash")
        elif len(ranges) > 1 and all(set.intersection(*ranges) < r for r in ranges):
            events.add("range narrowed by a second neighbour")
        for t in range(k + 1):
            col[f] = t
            if all(admits(col, e) for e in shadow.edges
                   if max(place[e.left], place[e.right]) == i):
                walk(col, i + 1)
        col[f] = None

    walk([None] * len(shadow.faces), 0)
    return events


def star_shadow(n):
    """n leaf faces, listed first, each joined to the centre face n by an
    edge of color 1/2."""
    faces = [ss.ShadowFace(chi=1, gleam2=0)] * n + [ss.ShadowFace(chi=2 - n, gleam2=0)]
    return ss.Shadow(faces=faces, edges=[ss.ShadowEdge(1, f, n) for f in range(n)])


def pair_links():
    """The empty link at k = 1 and 8, and seeded random double-point-free
    links with 1-7 loops at k = 1..8."""
    rng = random.Random(41)
    links = [empty_link(level=1), empty_link(level=8)]
    links += [random_dpfree_link(rng, max_loops=7, level=1 + trial % 8) for trial in range(80)]
    assert sum(len(link.loops) == 7 for link in links) >= 5
    return links


def circle_row(n, level, winds):
    """n disjoint 16-gon circles side by side, windings cycling through winds."""
    loops = tuple(polygon_circle(3.0 * i, 0, 1.0, 16, winding=winds[i % len(winds)],
                                 theta0=0.5, phase=0.13)
                  for i in range(n))
    return ss.Link(loops, t0=0.0, level=level)


def reversed_link(link):
    """The same link with its loops listed in reverse order."""
    return ss.Link(link.loops[::-1], t0=link.t0, level=link.level)


def shuffled_link(link, seed):
    """The same link with its loops listed in a seeded random order."""
    loops = list(link.loops)
    random.Random(seed).shuffle(loops)
    return ss.Link(tuple(loops), t0=link.t0, level=link.level)


def circle_chain(rng, n, level):
    """n concentric 16-gons of radius 0.75^i, loop 0 outermost, with
    seeded orientations and windings."""
    loops = tuple(polygon_circle(0.0, 0.0, 0.75 ** i, 16, winding=rng.randint(-2, 2),
                                 theta0=rng.uniform(0.1, 6.1), ccw=rng.random() < 0.5,
                                 phase=rng.uniform(0.0, TAU))
                  for i in range(n))
    return ss.Link(loops, t0=0.0, level=level)


class TestShadowConstruction:
    def test_circle_w0(self):
        shadow, fc = dpfree_shadow(circle_link(0))
        assert len(shadow.faces) == 2
        assert [f.chi for f in shadow.faces] == [1, 1]
        assert [f.gleam2 for f in shadow.faces] == [0, 0]
        assert len(shadow.edges) == 1 and not shadow.vertices

    def test_circle_w1_gleams(self):
        shadow, fc = dpfree_shadow(circle_link(1))
        gleams = {f.chi: f.gleam2 for f in shadow.faces}
        assert shadow.faces[0].gleam2 == 2       # inside the ccw circle
        assert shadow.faces[len(fc.parent)].gleam2 == -2

    def test_empty_link(self):
        shadow, _fc = dpfree_shadow(empty_link())
        assert len(shadow.faces) == 1
        assert shadow.faces[0].chi == 2 and shadow.faces[0].gleam2 == 0
        assert not shadow.edges

    def test_structural_validation(self):
        with pytest.raises(InvariantViolation, match="edge 0 references a missing face"):
            ss.Shadow(faces=(ss.ShadowFace(chi=1, gleam2=0),),
                      edges=(ss.ShadowEdge(color2=1, left=0, right=3),))

    def test_z_consistency_checked(self):
        with pytest.raises(InvariantViolation, match="declares z=1 but touches 0"):
            ss.Shadow(
                faces=(ss.ShadowFace(chi=1, gleam2=0, z=1),
                       ss.ShadowFace(chi=1, gleam2=0, z=0)),
                edges=(ss.ShadowEdge(color2=1, left=0, right=1),))

    @pytest.mark.parametrize("face, edge, vertex, message", [
        (ss.ShadowFace(chi=2, gleam2=0), ss.ShadowEdge(-1, 0, 0), None,
         "edge 0 has negative color"),
        (ss.ShadowFace(chi=2, gleam2=0, z=1), ss.ShadowEdge(1, 0, 0),
         ss.ShadowVertex(e1_2=1, e2_2=1, j=0, k=0, m=1, n=0),
         "vertex 0 references a missing face"),
        (ss.ShadowFace(chi=2, gleam2=0, z=1), ss.ShadowEdge(1, 0, 0),
         ss.ShadowVertex(e1_2=1, e2_2=-1, j=0, k=0, m=0, n=0),
         "vertex 0 has a negative strand color"),
        (ss.ShadowFace(chi=2, gleam2=0, z=-1), ss.ShadowEdge(1, 0, 0), None,
         "face 0 has negative double-point count"),
        (ss.ShadowFace(chi=2, gleam2=F(2, 3)), ss.ShadowEdge(1, 0, 0), None,
         "face 0 gleam2 Fraction\\(2, 3\\) is not an int"),
    ])
    def test_invariants_checked_at_construction(self, face, edge, vertex, message):
        with pytest.raises(InvariantViolation, match=message):
            ss.Shadow(faces=(face,), edges=(edge,), vertices=(vertex,) if vertex else ())

    @pytest.mark.parametrize("gleam2", [math.nan, "1/2", True, 1.0, F(2)])
    def test_gleam_that_is_no_finite_number_rejected(self, gleam2):
        # a bool, a float, a Fraction or a str is no doubled gleam, whatever
        # its value
        with pytest.raises(InvariantViolation, match="gleam2 .* is not an int"):
            ss.Shadow(faces=(ss.ShadowFace(2, gleam2),), edges=())


class TestEnumerateColorings:
    def test_empty_link_counts(self):
        for k in (1, 2, 5):
            shadow, _ = dpfree_shadow(empty_link(level=k))
            assert len(ss.enumerate_colorings(shadow, Level(k))) == k + 1

    def test_circle_level_one(self):
        shadow, _ = dpfree_shadow(circle_link(0, level=1))
        assert ss.enumerate_colorings(shadow, Level(1)) == [(0, 1), (1, 0)]

    def test_circle_level_two(self):
        shadow, _ = dpfree_shadow(circle_link(0, level=2))
        cols = ss.enumerate_colorings(shadow, Level(2))
        assert len(cols) == 4
        assert cols == brute_force_colorings(shadow, Level(2))

    def test_matches_brute_force_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            k = rng.randint(1, 4)
            link = random_dpfree_link(rng, max_loops=3, level=k)
            shadow, _ = dpfree_shadow(link)
            if len(shadow.faces) > 4:
                continue
            lev = Level(k)
            assert ss.enumerate_colorings(shadow, lev) == brute_force_colorings(shadow, lev)


    def test_relabelled_vertex_shadows_match_brute_force(self):
        # faces are colored breadth first, each component from its lowest
        # face, so relabelling moves which faces start a component and draw
        # from 0..k, which draw from one colored neighbour's fusion range,
        # and which intersect the ranges of several; the shadows drawn
        # coloring first mostly have several colorings, whose order counts
        rng = random.Random(22)
        seen = {"component start other than face 0": 0, "several edges to colored faces": 0,
                "self-loop": 0, "isolated face": 0, "odd self-loop": 0, "parity clash": 0,
                "range narrowed by a second neighbour": 0}
        several = 0
        for draw in [random_vertex_shadow] * 150 + [random_colored_vertex_shadow] * 150:
            k = rng.randint(1, 4)
            base = draw(rng, k)
            perm = list(range(len(base.faces)))
            rng.shuffle(perm)
            shadow = relabel_faces(base, perm)
            lev = Level(k)
            expected = brute_force_colorings(shadow, lev)
            assert ss.enumerate_colorings(shadow, lev) == expected
            several += draw is random_colored_vertex_shadow and len(expected) >= 2
            ends = [(e.left, e.right) for e in shadow.edges]
            seen["self-loop"] += any(a == b for a, b in ends)
            order, starts = visiting_order(shadow)
            place = {f: i for i, f in enumerate(order)}
            for f in range(len(shadow.faces)):
                placed = [ab for ab in ends if f in ab and max(place[a] for a in ab) == place[f]]
                seen["isolated face"] += not any(f in ab for ab in ends)
                seen["component start other than face 0"] += f > 0 and f in starts
                seen["several edges to colored faces"] += f not in starts and len(placed) > 1
            for event in walk_events(shadow, lev):
                seen[event] += 1
        assert min(seen.values()) >= 10, seen
        assert several >= 75, several

    def test_random_face_graphs_match_brute_force(self):
        # small face graphs with few edges, so often several components or
        # isolated faces: the walk finishes a component before it starts
        # the next, and its list is often out of lexicographic order until
        # it is sorted back; then denser graphs without self-loops, where
        # faces often have two or more neighbours colored before them
        rng = random.Random(24)
        sorted_back = 0
        seen = {"odd self-loop": 0, "parity clash": 0, "range narrowed by a second neighbour": 0}
        for dense in [False] * 200 + [True] * 100:
            k, nf = rng.randint(1, 3), rng.randint(2 + dense, 5)
            if dense:
                edges = [ss.ShadowEdge(rng.randint(0, k), *rng.sample(range(nf), 2))
                         for _ in range(rng.randint(3, 6))]
            else:
                edges = [ss.ShadowEdge(rng.randint(0, k), rng.randrange(nf), rng.randrange(nf))
                         for _ in range(rng.randint(1, 3))]
            shadow = ss.Shadow(faces=[ss.ShadowFace(chi=1, gleam2=0)] * nf, edges=edges)
            lev = Level(k)
            expected = brute_force_colorings(shadow, lev)
            assert ss.enumerate_colorings(shadow, lev) == expected
            order, _ = visiting_order(shadow)
            sorted_back += sorted(expected, key=lambda col: [col[f] for f in order]) != expected
            for event in walk_events(shadow, lev):
                seen[event] += 1
        assert sorted_back >= 10, sorted_back
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("n", [12, 14])
    def test_star_leaves_before_centre(self, n):
        # the centre has the highest id, so a walk in id order would try
        # every color on every leaf; breadth first, each leaf draws from
        # the centre
        star = star_shadow(n)
        leaves = [(1,) * n + (0,), (1,) * n + (2,)]
        leaves += [col + (1,) for col in itertools.product((0, 2), repeat=n)]
        assert ss.enumerate_colorings(star, Level(2)) == sorted(leaves)

    def test_star_of_forty_leaves_at_level_one(self):
        # in id order this walk would visit 2^40 leaf prefixes
        assert ss.enumerate_colorings(star_shadow(40), Level(1)) == [
            (0,) * 40 + (1,), (1,) * 40 + (0,)]


class TestStateSums:
    def test_vertex_shadows_match_brute_force(self):
        # the shadows drawn coloring first have at least one coloring, and
        # mostly several, so their sums add terms
        rng = random.Random(23)
        nonzero = several = 0
        for draw in [random_vertex_shadow] * 300 + [random_colored_vertex_shadow] * 150:
            k = rng.randint(1, 4)
            shadow = draw(rng, k)
            lev = Level(k)
            expected = brute_force_state_sum(shadow, lev)
            assert ss.state_sum_general(shadow, lev) == pytest.approx(
                expected, rel=1e-10, abs=1e-12)
            if draw is random_vertex_shadow:
                nonzero += abs(expected) > 1e-6
            else:
                several += len(brute_force_colorings(shadow, lev)) >= 2
        assert nonzero >= 40
        assert several >= 75, several

    @pytest.mark.parametrize("k", [2, 32, 128, 200, 201])
    def test_twocircles_bit_identical_to_term_by_term_sum(self, corpus_dir, k):
        # every term is built as complex(prod of 6j) times the face weights
        # in face order and added in lexicographic order, so the memoized
        # sum must agree to the last bit, not merely within a tolerance
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        lev = Level(k)
        cols = ss.enumerate_colorings(two, lev)
        assert cols == sorted(cols)
        expected = term_by_term_sum(two, lev, cols)
        assert ss.state_sum_general(two, Level(k)) == expected
        assert ss.state_sum_general(two, Level(k), colorings=cols) == expected

    @pytest.mark.parametrize("k", [2, 32])
    def test_interleaved_twocircles_bit_identical_to_lexicographic_sum(self, corpus_dir, k):
        # two copies of twocircles with their face ids interleaved: the walk
        # colors one copy before the other, so its list must be sorted back
        # into lexicographic order, in which the sum adds its terms
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        pair = relabel_faces(disjoint_union(two, two), [0, 4, 1, 5, 2, 6, 3, 7])
        order, _ = visiting_order(pair)
        lev = Level(k)
        cols = ss.enumerate_colorings(pair, lev)
        singles = ss.enumerate_colorings(two, lev)
        assert cols == sorted(tuple(x for ab in zip(a, b) for x in ab)
                              for a in singles for b in singles)
        assert sorted(cols, key=lambda col: [col[f] for f in order]) != cols
        assert ss.state_sum_general(pair, lev) == term_by_term_sum(pair, lev, cols)

    def test_face_weight_once_per_distinct_face_and_color(self, corpus_dir, monkeypatch):
        # the four faces of twocircles carry equal (chi, gleam, z), so they
        # share one weight per color; in a row of three circles of winding
        # 0 the three inner faces do, so the vertex-free sum evaluates two
        # rows of weights for its four faces
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        assert len({(f.chi, f.gleam2, f.z) for f in two.faces}) == 1
        calls = []
        real = ss.shadow._face_weight

        def counting(r, s1, chi, x, t):
            calls.append((chi, x, t))
            return real(r, s1, chi, x, t)

        monkeypatch.setattr(ss.shadow, "_face_weight", counting)
        ss.state_sum_general(two, Level(6))
        assert calls
        assert len(calls) == len(set(calls))

        row, _ = dpfree_shadow(circle_row(3, 6, (0,)))
        assert len(row.faces) == 4
        assert len({(f.chi, f.gleam2, f.z) for f in row.faces}) == 2
        calls.clear()
        ss.state_sum_dpfree(row, Level(6))
        assert len(calls) == len(set(calls)) == 2 * 7

    def test_qfactorials_fetched_once_as_far_as_the_colorings_read(self, corpus_dir,
                                                                    monkeypatch):
        # one [n]! table per call; caller colorings in colors 0 and 1/2 at
        # level 10**6 read at most [3]!, and no coloring reads none
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        fetched = []
        real = ss.shadow._qfactorials

        def recording(level, n):
            fetched.append(real(level, n))
            return fetched[-1]

        monkeypatch.setattr(ss.shadow, "_qfactorials", recording)
        ss.state_sum_general(two, Level(6))
        assert [len(qf) for qf in fetched] == [8]
        huge = Level(10**6)
        assert ss.state_sum_general(two, huge, colorings=[(0, 1, 0, 1), (1, 0, 1, 0)]) != 0
        assert len(fetched) == 2 and len(fetched[-1]) <= 4
        assert ss.state_sum_general(two, huge, colorings=[]) == 0
        assert len(fetched) == 2

    def test_empty_link_level_one(self):
        shadow, _ = dpfree_shadow(empty_link())
        assert ss.state_sum_general(shadow, Level(1)) == pytest.approx(2.0, abs=1e-12)
        assert ss.state_sum_dpfree(shadow, Level(1)) == pytest.approx(2.0, abs=1e-12)

    def test_circle_w0_level_one(self):
        shadow, _ = dpfree_shadow(circle_link(0))
        assert ss.state_sum_dpfree(shadow, Level(1)) == pytest.approx(-2.0, abs=1e-12)
        assert ss.state_sum_general(shadow, Level(1)) == pytest.approx(-2.0, abs=1e-12)

    def test_general_matches_dpfree_on_vertex_free(self):
        rng = random.Random(18)
        for _ in range(10):
            k = rng.randint(1, 4)
            link = random_dpfree_link(rng, max_loops=4, level=k)
            shadow, _ = dpfree_shadow(link)
            a = ss.state_sum_dpfree(shadow, Level(k))
            b = ss.state_sum_general(shadow, Level(k))
            assert a == pytest.approx(b, abs=1e-12)

    def test_dpfree_matches_brute_force_weighted(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(40):
            k = rng.randint(1, 4)
            link = random_dpfree_link(rng, max_loops=4, level=k)
            shadow, _ = dpfree_shadow(link)
            if len(shadow.faces) > 5:
                continue
            # the same face tree with higher edge colors, where the bound
            # t + t' + c <= 2k starts to cut
            recolored = ss.Shadow(shadow.faces, tuple(
                ss.ShadowEdge(rng.randint(0, k), e.left, e.right) for e in shadow.edges))
            for sh in (shadow, recolored):
                expected = brute_force_state_sum(sh, Level(k))
                assert ss.state_sum_dpfree(sh, Level(k)) == pytest.approx(
                    expected, rel=1e-10, abs=1e-12)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("n", [8, 12])
    def test_long_rows_match_pairsum(self, n):
        link = circle_row(n, 6, (0, 1, -1, 2))
        fc = ss.face_complex(link)
        final = ss.wlo_dpfree_final(link, Level(6), fc)
        pair = ss.wlo_dpfree_pairsum(link, Level(6), fc)
        assert abs(final) > 1.0
        assert final == pytest.approx(pair, rel=1e-9)

    @pytest.mark.parametrize("faces,edges", [
        # two faces glued along two edges (a repeated face pair)
        ((1, 1), ((2, 0, 1), (0, 0, 1))),
        # a single face bounded on both sides by one edge (a self-loop)
        ((2,), ((2, 0, 0),)),
        # a cycle in one component next to a tree in another
        ((0, 1, 1, 1), ((0, 0, 1), (2, 1, 0), (1, 2, 3))),
    ])
    def test_face_graph_cycle_rejected(self, faces, edges):
        # no link has such a face graph: the general sum evaluates it, the
        # vertex-free sum refuses it
        shadow = ss.Shadow(
            faces=tuple(ss.ShadowFace(chi=chi, gleam2=i - 1)
                        for i, chi in enumerate(faces)),
            edges=tuple(ss.ShadowEdge(c, a, b) for c, a, b in edges))
        for k in (2, 3, 4):
            assert abs(ss.state_sum_general(shadow, Level(k))) > 1e-6
            with pytest.raises(PreconditionError, match="face forest"):
                ss.state_sum_dpfree(shadow, Level(k))

    def test_edge_color_above_level(self):
        shadow = ss.Shadow(
            faces=(ss.ShadowFace(chi=1, gleam2=0), ss.ShadowFace(chi=1, gleam2=0)),
            edges=(ss.ShadowEdge(color2=3, left=0, right=1),))
        for state_sum in (ss.state_sum_dpfree, ss.state_sum_general):
            with pytest.raises(ColorOutOfRange):
                state_sum(shadow, Level(2))
        # an odd self-loop admits no coloring, but an edge color above the
        # level listed after it still raises
        looped = ss.Shadow(shadow.faces, (ss.ShadowEdge(1, 0, 0),) + shadow.edges)
        assert ss.enumerate_colorings(looped, Level(3)) == []
        with pytest.raises(ColorOutOfRange, match="edge color 3/2 outside"):
            ss.enumerate_colorings(looped, Level(2))

    def test_edges_without_faces(self):
        with pytest.raises(InvariantViolation, match="edge 0 references a missing face"):
            ss.Shadow(faces=(), edges=(ss.ShadowEdge(color2=1, left=0, right=0),))

    def test_dpfree_rejects_vertices(self):
        shadow = ss.Shadow(
            faces=(ss.ShadowFace(chi=2, gleam2=0, z=1),),
            edges=(ss.ShadowEdge(color2=0, left=0, right=0),),
            vertices=(ss.ShadowVertex(e1_2=0, e2_2=0, j=0, k=0, m=0, n=0),))
        with pytest.raises(HasVertices):
            ss.state_sum_dpfree(shadow, Level(1))

    def test_missing_gleam(self):
        shadow = ss.Shadow(faces=(ss.ShadowFace(chi=2, gleam2=None),), edges=())
        with pytest.raises(MissingGleams):
            ss.state_sum_dpfree(shadow, Level(1))

    def test_missing_gleam_raised_when_every_term_vanishes(self):
        # (1/2, t, t) never couples, so the one 6j factor is 0 for every
        # coloring and no face weight is ever needed
        shadow = ss.Shadow(
            faces=(ss.ShadowFace(chi=2, gleam2=None, z=1),), edges=(),
            vertices=(ss.ShadowVertex(e1_2=1, e2_2=1, j=0, k=0, m=0, n=0),))
        assert ss.enumerate_colorings(shadow, Level(3))
        with pytest.raises(MissingGleams):
            ss.state_sum_general(shadow, Level(3))

    def test_strand_color_above_level_raised_without_colorings(self):
        # a color-1/2 edge from face 0 to itself admits no coloring, so no
        # 6j-symbol sees the strand color 5/2
        shadow = ss.Shadow(
            faces=(ss.ShadowFace(chi=2, gleam2=0, z=1),),
            edges=(ss.ShadowEdge(color2=1, left=0, right=0),),
            vertices=(ss.ShadowVertex(e1_2=5, e2_2=0, j=0, k=0, m=0, n=0),))
        assert ss.enumerate_colorings(shadow, Level(1)) == []
        with pytest.raises(ColorOutOfRange, match="strand color 5/2 outside color set of level 1"):
            ss.state_sum_general(shadow, Level(1))

    @pytest.mark.parametrize("col, message", [
        ((-1, 0, -1, 0), "coloring (-1, 0, -1, 0) has a face color outside"),
        ((3, 2, 3, 2), "coloring (3, 2, 3, 2) has a face color outside"),
        ((0, 0, 0, 3), "coloring (0, 0, 0, 3) has a face color outside"),
        ((1, 0, 0, 1, -1), "coloring (1, 0, 0, 1, -1) has a face color outside"),
        ((0, 1, 0, 1, 3), "face color 3/2 outside"),
        ((0, 1, 0, 1, -4), "face color -2 outside"),
        ((0, 1, 0, 1, -6), "face color -3 outside"),
    ], ids=["minus-one", "k-plus-one", "one-face-k-plus-one",
            "free-face-vanishing-term", "free-face-nonzero-term",
            "free-face-minus-two", "free-face-minus-three"])
    def test_caller_coloring_out_of_range(self, corpus_dir, col, message):
        # a caller's color outside 0 .. k raises, also in a term whose 6j
        # product vanishes and so reads no face weight; a fifth color goes
        # to an added face that touches no double point
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        if len(col) == 5:
            two = ss.Shadow(faces=two.faces + (ss.ShadowFace(chi=0, gleam2=2),),
                            edges=two.edges, vertices=two.vertices)
        lev = Level(2)
        with pytest.raises(ColorOutOfRange, match=re.escape(f"{message} color set of level 2")):
            ss.state_sum_general(two, lev, colorings=[col])
        # the bad coloring raises after valid ones too
        valid = ss.enumerate_colorings(two, lev)
        with pytest.raises(ColorOutOfRange):
            ss.state_sum_general(two, lev, colorings=valid + [col])

    @pytest.mark.parametrize("col", [(), (0, 1, 1), (0, 1, 1, 0, 0)])
    def test_caller_coloring_of_wrong_length(self, corpus_dir, col):
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        with pytest.raises(PreconditionError, match="does not color the 4 faces"):
            ss.state_sum_general(two, Level(2), colorings=[col])

    def test_face_weights_match_fraction_oracle_to_the_bit(self):
        # x = (gleam2 - z) / 2 is one correctly rounded int division, also
        # for gleams past 2**53; each (k, t) gets the next face of the
        # (chi, gleam2, z) grid in turn
        gleams = list(range(-9, 10)) + [2 * (2**53 + 1), -(2**60) - 1]
        grid = [ss.ShadowFace(chi=chi, gleam2=g, z=z)
                for chi in range(-2, 3) for g in gleams for z in range(5)]
        i = 0
        for k in range(1, 301):
            lev = Level(k)
            for t in range(k + 1):
                face = grid[i % len(grid)]
                i += 1
                w = _face_weight(lev.rbar, math.sin(math.pi / lev.rbar), face.chi,
                                 _modified_gleam(face), t)
                want = face_weight_oracle(lev, face, t)
                assert (w.real.hex(), w.imag.hex()) == (want.real.hex(), want.imag.hex()), \
                    (k, t, face)
        assert i > 10 * len(grid)

    def test_relabeling_invariance(self):
        rng = random.Random(19)
        link = random_dpfree_link(rng, max_loops=4, level=2)
        shadow, _ = dpfree_shadow(link)
        lev = Level(2)
        base = ss.state_sum_dpfree(shadow, lev)
        perm = list(range(len(shadow.faces)))
        rng.shuffle(perm)
        # permute face ids and remap edges accordingly
        inv = {old: new for new, old in enumerate(perm)}
        faces = tuple(shadow.faces[p] for p in perm)
        edges = tuple(ss.ShadowEdge(e.color2, inv[e.left], inv[e.right])
                      for e in shadow.edges)
        permuted = ss.Shadow(faces=faces, edges=edges)
        assert ss.state_sum_dpfree(permuted, lev) == pytest.approx(base, abs=1e-12)

    def test_zero_color_strand_drops_out(self, corpus_dir):
        # a second circle colored 0 multiplies the vertex-free value by -1
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        for k in (1, 2, 3, 4):
            lev = Level(k)
            plain, _ = dpfree_shadow(circle_link(0, level=k))
            a = ss.state_sum_general(two, lev)
            b = ss.state_sum_dpfree(plain, lev)
            assert a == pytest.approx(-b, abs=1e-10)

    def test_twocircles_frozen_values(self, corpus_dir):
        two = ss.load_shadow(corpus_dir / "twocircles.shadow.json")
        assert ss.state_sum_general(two, Level(1)) == pytest.approx(2.0, abs=1e-10)
        assert ss.state_sum_general(two, Level(2)) == pytest.approx(
            4 * math.sqrt(2), abs=1e-10)


class TestPairs:
    def test_circle_level_one(self):
        link = circle_link(0, level=1)
        fc = ss.face_complex(link)
        pairs = ss.enumerate_pairs(link, Level(1), fc)
        assert [(p.l, p.signs) for p in pairs] == [(1, (-1,)), (2, (1,))]

    def test_empty_link(self):
        link = empty_link(level=3)
        fc = ss.face_complex(link)
        pairs = ss.enumerate_pairs(link, Level(3), fc)
        assert [(p.l, p.signs) for p in pairs] == [(l, ()) for l in range(1, 5)]

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            Level(0)

    def test_rejects_non_fundamental_colors(self):
        link = circle_link(0, level=2, color2=2)
        fc = ss.face_complex(link)
        with pytest.raises(UnsupportedColor):
            ss.enumerate_pairs(link, Level(2), fc)
        # a colored loop after a fundamental one, on both pair routes
        loops = (polygon_circle(0, 0, 1.0, 16), polygon_circle(3.0, 0, 1.0, 16, color2=2))
        link = ss.Link(loops, t0=0.0, level=2)
        fc = ss.face_complex(link)
        with pytest.raises(UnsupportedColor, match="loop 1"):
            ss.enumerate_pairs(link, Level(2), fc)
        with pytest.raises(UnsupportedColor, match="loop 1"):
            ss.wlo_dpfree_pairsum(link, Level(2), fc)

    def test_matches_filter_oracle(self):
        # the same pairs in the same order: l-major, then itertools.product,
        # also with the loops listed children first or shuffled
        links = pair_links()
        links += ([reversed_link(link) for link in links]
                  + [shuffled_link(link, seed) for seed, link in enumerate(links)])
        for link in links:
            fc = ss.face_complex(link)
            level = Level(link.level)
            assert ss.enumerate_pairs(link, level, fc) == enumerate_pairs_oracle(link, level)

    def test_pruned_walk_matches_filter_oracle(self):
        # nested chains, where the walk drops most prefixes, and rows,
        # where only k = 1 drops any: at the first offset of the other
        # sign.  Listed innermost first or shuffled, a chain is walked
        # outermost first all the same
        rng = random.Random(19)
        links = [circle_chain(rng, n, 1) for n in range(1, 13)]
        links += ([reversed_link(link) for link in links]
                  + [shuffled_link(link, seed) for seed, link in enumerate(links)])
        links += [circle_row(n, 1, (0, 1, -1)) for n in range(1, 8)]
        for link in links:
            fc = ss.face_complex(link)
            for k in range(1, 5):
                level = Level(k)
                assert ss.enumerate_pairs(link, level, fc) == enumerate_pairs_oracle(link, level)

    def test_deep_chain_at_low_level(self):
        # 2^n sign vectors, of which two have an admissible level at k = 1:
        # the offsets of nested faces must alternate between 0 and +1 or -1.
        # Walked in file order, an innermost-first or shuffled chain would
        # finalize most face offsets late and prune little; walked ancestor
        # first, every step finalizes one
        for n in (20, 40, 50):
            link = circle_chain(random.Random(40), n, 1)
            orders = [reversed_link(link)] + [shuffled_link(link, seed) for seed in (7, 8, 9)]
            for chain in [link] + orders:
                fc = ss.face_complex(chain)
                start = time.perf_counter()
                pair = ss.wlo_dpfree_pairsum(chain, Level(1), fc)
                assert time.perf_counter() - start < 0.1
                assert len(ss.enumerate_pairs(chain, Level(1), fc)) == 2
                assert abs(pair - ss.wlo_dpfree_final(chain, Level(1), fc)) <= 1e-9

    def test_pairsum_bit_identical_to_per_pair_formula(self):
        # listed children first or shuffled, a level's terms come out of the
        # walk out of pair order and are added sorted
        links = pair_links()
        links += ([reversed_link(link) for link in links]
                  + [shuffled_link(link, seed) for seed, link in enumerate(links)]
                  + [shuffled_link(link, 100 + seed) for seed, link in enumerate(links)])
        for link in links:
            fc = ss.face_complex(link)
            level = Level(link.level)
            want = pairsum_oracle(link, level, fc, enumerate_pairs_oracle(link, level))
            got = ss.wlo_dpfree_pairsum(link, level, fc)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_reordered_deep_nests_bit_identical(self):
        # chains and binary nests of 8-10 circles at k = 2..6, listed
        # children first and shuffled: a reordered file's leaf multiplies
        # its amplitude anew in face order, and the value and the sorted
        # records must match the per-pair formula to the bit.  A nest's
        # faces have chi -1, 0 or 1, and all but two of a chain's chi 0.  A
        # row, whose loops are all roots, is walked in index order in any
        # listing
        rng = random.Random(43)
        links = []
        for n in (8, 9, 10):
            # loop i's children are loops 2i + 1 and 2i + 2, at either side
            discs = [(0.0, 0.0, 1.0)]
            for i in range(1, n):
                x, y, r = discs[(i - 1) // 2]
                discs.append((x + (0.45 if i % 2 else -0.45) * r, y, 0.4 * r))
            nest = tuple(polygon_circle(x, y, r, 16, winding=rng.randint(-2, 2),
                                        theta0=rng.uniform(0.1, 6.1), ccw=rng.random() < 0.5,
                                        phase=rng.uniform(0.0, TAU))
                         for x, y, r in discs)
            for link in (circle_chain(rng, n, 6), ss.Link(nest, t0=0.0, level=6)):
                links += [reversed_link(link), shuffled_link(link, n)]
            links.append(reversed_link(circle_row(n, 6, (0, 1, -1, 2))))
        for link in links:
            fc = ss.face_complex(link)
            for k in range(2, 7):
                level = Level(k)
                pairs = enumerate_pairs_oracle(link, level)
                assert ss.enumerate_pairs(link, level, fc) == pairs
                want = pairsum_oracle(link, level, fc, pairs)
                got = ss.wlo_dpfree_pairsum(link, level, fc)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_coloring_of_pair(self):
        link = circle_link(0, level=1)
        fc = ss.face_complex(link)
        pairs = ss.enumerate_pairs(link, Level(1), fc)
        # face 0 is the inner disk, face 1 the outer face
        assert ss.coloring_of_pair(pairs[0]) == (1, 0)
        assert ss.coloring_of_pair(pairs[1]) == (0, 1)

    def test_outer_face_color_is_l_minus_one(self):
        rng = random.Random(20)
        for _ in range(10):
            k = rng.randint(1, 5)
            link = random_dpfree_link(rng, max_loops=4, level=k)
            fc = ss.face_complex(link)
            for pair in ss.enumerate_pairs(link, Level(k), fc):
                assert ss.coloring_of_pair(pair)[len(link.loops)] == pair.l - 1


class TestBijection:
    def test_circle(self):
        link = circle_link(0)
        report = ss.check_bijection(link, Level(1), ss.face_complex(link))
        assert report.ok and report.pairs_count == 2 and report.colorings_count == 2

    def test_empty(self):
        for k in (1, 4):
            link = empty_link(level=k)
            report = ss.check_bijection(link, Level(k), ss.face_complex(link))
            assert report.ok and report.pairs_count == k + 1

    def test_randomized(self):
        rng = random.Random(27)
        for _ in range(40):
            k = rng.randint(1, 6)
            link = random_dpfree_link(rng, max_loops=5, level=k)
            fc = ss.face_complex(link)
            assert ss.check_bijection(link, Level(k), fc).ok

    @staticmethod
    def pair_list_report(link, level, fc):
        """The report built from the AdmissiblePair list: each pair's
        coloring_of_pair image, and one set of images and one of the
        admissible colorings."""
        images = [ss.coloring_of_pair(p) for p in ss.enumerate_pairs(link, level, fc)]
        admissible = set(ss.enumerate_colorings(ss.shadow_from_dpfree(link, fc), level))
        image_set = set(images)
        return ss.BijectionReport(
            pairs_count=len(images),
            colorings_count=len(admissible),
            injective=len(image_set) == len(images),
            surjective=admissible <= image_set,
            missing=tuple(sorted(admissible - image_set)),
            extra=tuple(sorted(image_set - admissible)),
        )

    def test_matches_pair_list_report(self, corpus_dir):
        # random links at k = 1..8, also listed children first and shuffled,
        # where the walk appends its records out of pair order
        links = pair_links()
        links += ([reversed_link(link) for link in links]
                  + [shuffled_link(link, seed) for seed, link in enumerate(links)])
        concentric = ss.load_link(corpus_dir / "concentric.link.json")
        cases = [(link, Level(link.level)) for link in links]
        cases += [(link, Level(k)) for link in (concentric, reversed_link(concentric))
                  for k in range(1, 9)]
        for link, level in cases:
            fc = ss.face_complex(link)
            assert ss.check_bijection(link, level, fc) == self.pair_list_report(link, level, fc)

    def test_dropped_record_is_missing(self, monkeypatch):
        rng = random.Random(33)
        link = random_dpfree_link(rng, max_loops=4, level=3)
        fc = ss.face_complex(link)
        real = ss.shadow._pair_walk
        dropped = []

        def drop_one(link, level, fc, record=None):
            out = real(link, level, fc, record)
            dropped.append(record.pop(len(record) // 2))
            return out

        monkeypatch.setattr(ss.shadow, "_pair_walk", drop_one)
        report = ss.check_bijection(link, Level(3), fc)
        (_, _, xi), = dropped
        assert not report.surjective and report.injective and not report.ok
        assert report.missing == (tuple(x - 1 for x in xi),) and report.extra == ()
        assert report.pairs_count == report.colorings_count - 1


class TestPairSumAndFinal:
    def test_circle_w0_golden(self):
        link = circle_link(0, level=1)
        fc = ss.face_complex(link)
        lev = Level(1)
        final = ss.wlo_dpfree_final(link, lev, fc)
        pair = ss.wlo_dpfree_pairsum(link, lev, fc)
        assert final == pytest.approx(-1.5, abs=1e-12)
        assert pair == pytest.approx(final, abs=1e-12)

    def test_empty_link_trig_sum(self):
        for k in range(1, 7):
            link = empty_link(level=k)
            fc = ss.face_complex(link)
            val = ss.wlo_dpfree_pairsum(link, Level(k), fc)
            oracle = sum(math.sin(math.pi * l / (k + 2)) ** 2 for l in range(1, k + 2))
            assert val == pytest.approx(oracle, abs=1e-12)
            assert val == pytest.approx((k + 2) / 2.0, abs=1e-10)

    def test_zero_winding_values_real(self):
        rng = random.Random(33)
        for _ in range(10):
            k = rng.randint(1, 6)
            link = random_dpfree_link(rng, max_loops=4, level=k, wind_range=(0, 0))
            fc = ss.face_complex(link)
            val = ss.wlo_dpfree_pairsum(link, Level(k), fc)
            assert abs(val.imag) < 1e-12

    def test_routes_agree_randomized(self):
        rng = random.Random(34)
        for trial in range(60):
            k = 1 + trial % 6
            link = random_dpfree_link(rng, max_loops=5, level=k)
            fc = ss.face_complex(link)
            a = ss.wlo_dpfree_pairsum(link, Level(k), fc)
            b = ss.wlo_dpfree_final(link, Level(k), fc)
            assert a == pytest.approx(b, abs=1e-12, rel=1e-9)

    def test_t0_rotation_and_translation_invariance(self):
        rng = random.Random(35)
        link = random_dpfree_link(rng, max_loops=4, level=3)
        fc = ss.face_complex(link)
        base = ss.wlo_dpfree_final(link, Level(3), fc)
        for t0 in (0.7, 2.9, 5.1):
            moved = ss.Link(
                tuple(ss.make_loop([(x + 11.0, y - 7.0, th) for x, y, th in lp.vertices],
                                   color2=lp.color2)
                      for lp in link.loops),
                t0=t0, level=link.level)
            fc2 = ss.face_complex(moved)
            val = ss.wlo_dpfree_final(moved, Level(3), fc2)
            pair = ss.wlo_dpfree_pairsum(moved, Level(3), fc2)
            assert val == pytest.approx(base, abs=1e-9)
            assert pair == pytest.approx(base, abs=1e-9)

    def test_sample_point_choice_immaterial(self):
        # the pair field is constant on faces: probing several interior
        # points of each face gives the same face id and hence the same xi
        rng = random.Random(36)
        link = random_dpfree_link(rng, max_loops=3, level=2)
        fc = ss.face_complex(link)
        for f in range(len(fc.chi)):
            p = sample_point_oracle(link, fc, f)
            assert face_of_point_oracle(link, fc, p) == f
            q = (p[0] + 1e-4, p[1] - 1e-4)
            try:
                assert face_of_point_oracle(link, fc, q) == f
            except ss.PointOnCurve:
                pass

