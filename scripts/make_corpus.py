#!/usr/bin/env python3
"""Rebuild the regression corpus under corpus/.

Writes the link and shadow files, byte-identical on every run.  The
golden file corpus/golden.tsv is frozen by hand after oracle verification
and is not rewritten here; scripts/corpus_report.py checks each of its
rows through the command line.
"""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import shadowsum as ss
from shadowsum.random_links import polygon_circle

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def write(name: str, text: str):
    path = CORPUS / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path.name}")


def link_of(loops, t0=0.0, level=1):
    return ss.Link(tuple(loops), t0=t0, level=level)


def main():
    CORPUS.mkdir(exist_ok=True)

    write("empty.link.json", ss.dumps_link(link_of([], level=1)))

    circle_w0 = polygon_circle(0, 0, 1.0, 16, winding=0, theta0=0.5, phase=0.13)
    write("circle_w0.link.json", ss.dumps_link(link_of([circle_w0], level=1)))

    circle_wp1 = polygon_circle(0, 0, 1.0, 16, winding=1, theta0=0.5, phase=0.13)
    write("circle_wp1.link.json", ss.dumps_link(link_of([circle_wp1], level=1)))

    circle_wm1 = polygon_circle(0, 0, 1.0, 16, winding=-1, theta0=0.5, phase=0.13)
    write("circle_wm1.link.json", ss.dumps_link(link_of([circle_wm1], level=1)))

    nested = [
        polygon_circle(0, 0, 1.0, 16, winding=1, theta0=0.5, phase=0.13),
        polygon_circle(0, 0, 0.45, 14, winding=-1, theta0=1.7, phase=0.29),
    ]
    write("nested_pair.link.json", ss.dumps_link(link_of(nested, level=1)))

    disjoint = [
        polygon_circle(0, 0, 1.0, 16, winding=0, theta0=0.4, phase=0.13),
        polygon_circle(3.0, 0.2, 0.8, 14, winding=0, theta0=1.1, phase=0.29),
    ]
    write("disjoint_pair.link.json", ss.dumps_link(link_of(disjoint, level=2)))

    hopf = [
        polygon_circle(0, 0, 1.0, 24, theta0=0.5, phase=0.13),
        polygon_circle(1.0, 0.0, 1.0, 22, phase=0.31,
                       theta_fn=lambda u: 0.55 + 0.35 * math.sin(2 * math.pi * u)),
    ]
    write("hopf.link.json", ss.dumps_link(link_of(hopf, t0=0.0, level=2)))

    concentric = [
        polygon_circle(0, 0, 1.0, 16, theta0=0.3, phase=0.13),
        polygon_circle(0, 0, 2.0, 18, theta0=1.0, phase=0.29),
    ]
    write("concentric.link.json", ss.dumps_link(link_of(concentric, level=2)))

    oscillating = polygon_circle(
        0, 0, 1.0, 20, phase=0.07,
        theta_fn=lambda u: 0.3 + 0.5 * math.sin(2 * math.pi * u))
    write("oscillating_circle.link.json", ss.dumps_link(link_of([oscillating], level=1)))

    def osc(base, amp, ph):
        return lambda u: base + amp * math.sin(2 * math.pi * u + ph)

    chain = [
        polygon_circle(0, 0, 1.0, 16, phase=0.13, theta_fn=osc(0.8, 0.6, 0.2)),
        polygon_circle(1.4, 0.1, 1.0, 18, phase=0.37, theta_fn=osc(2.0, 0.9, 1.1)),
        polygon_circle(2.8, 0.0, 1.0, 20, phase=0.59, theta_fn=osc(4.1, 1.2, 2.3)),
    ]
    write("three_chain.link.json", ss.dumps_link(link_of(chain, t0=0.0, level=3)))

    # figure eight: two lobes joined by one transversal self-crossing
    fig8_pts = []
    n = 14
    for i in range(n):
        a = 2 * math.pi * i / n
        fig8_pts.append((1.0 + 0.9 * math.cos(a + 2.1), 0.9 * math.sin(a + 2.1)))
    for i in range(n):
        a = 2 * math.pi * i / n
        fig8_pts.append((-1.0 + 0.9 * math.cos(a - 1.0), -0.9 * math.sin(a - 1.0)))
    fig8_pts.append(fig8_pts[0])
    fig8 = ss.make_loop(
        [(x, y, 1.5 + 0.8 * math.sin(2 * math.pi * i / (2 * n) + 0.4))
         for i, (x, y) in enumerate(fig8_pts)], color2=1)
    write("figure8.link.json", ss.dumps_link(link_of([fig8], t0=0.0, level=2)))

    vertical = [
        ss.make_loop([(0.0, 0.0, 0.2), (0.0, 0.0, 0.2 + math.pi), (0.0, 0.0, 0.2 + 2 * math.pi)],
                     color2=1, vertical=True),
        ss.make_loop([(2.0, 0.0, 1.2), (2.0, 0.0, 1.2 + math.pi), (2.0, 0.0, 1.2 + 2 * math.pi)],
                     color2=2, vertical=True),
    ]
    write("vertical_pair.link.json", ss.dumps_link(link_of(vertical, level=3)))

    write("empty.shadow.json", ss.dumps_shadow(
        ss.Shadow(faces=(ss.ShadowFace(chi=2, gleam2=0),), edges=())))

    write("circle_w0.shadow.json", ss.dumps_shadow(ss.Shadow(
        faces=(ss.ShadowFace(chi=1, gleam2=0), ss.ShadowFace(chi=1, gleam2=0)),
        edges=(ss.ShadowEdge(color2=1, left=0, right=1),),
    )))

    # two overlapping circles, second strand colored 0: faces O, A-only, B-only, lens
    two = ss.Shadow(
        faces=(
            ss.ShadowFace(chi=1, gleam2=2, z=2),   # 0: outer
            ss.ShadowFace(chi=1, gleam2=2, z=2),   # 1: inside first only
            ss.ShadowFace(chi=1, gleam2=2, z=2),   # 2: inside second only
            ss.ShadowFace(chi=1, gleam2=2, z=2),   # 3: lens
        ),
        edges=(
            ss.ShadowEdge(color2=1, left=3, right=2),  # first circle, arc inside second
            ss.ShadowEdge(color2=1, left=1, right=0),  # first circle, outer arc
            ss.ShadowEdge(color2=0, left=3, right=1),  # second circle, arc inside first
            ss.ShadowEdge(color2=0, left=2, right=0),  # second circle, outer arc
        ),
        vertices=(
            ss.ShadowVertex(e1_2=1, e2_2=0, j=0, k=1, m=3, n=2),
            ss.ShadowVertex(e1_2=1, e2_2=0, j=0, k=1, m=3, n=2),
        ),
    )
    write("twocircles.shadow.json", ss.dumps_shadow(two))


if __name__ == "__main__":
    main()
