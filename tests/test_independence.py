"""Route independence as a checked property.

Routes that cross-check each other prove something only while they share
no code: versions built apart still fail together, and shared code makes
that certain (Knight and Leveson, "An experimental evaluation of the
assumption of independence in multiversion programming", IEEE TSE 12(1),
1986).  These tests build the static call graph of `src/shadowsum` with
`ast` and assert that what both routes of a pair can reach lies inside
that pair's allow-list of shared inputs, each with its reason.  A new
shared helper fails here until it is reviewed and listed.  The package's
module import graph is asserted as well, so a change that couples two
layers, geometry back to quantum say, fails here until it is listed.

The graph is name-level.  Its nodes are the module-level functions and
classes and the methods of those classes, by bare name.  A function or
method reaches every node whose name it loads and every method whose
attribute it references.  A class reaches its bases, its class-level
statements and `__post_init__`, which runs whenever it is built; its other
methods count only where their attribute is referenced.  The exception
classes of `errors.py` carry no computation and count as one entry,
`errors`.
"""

import ast
import pathlib

import pytest

import shadowsum

SRC = pathlib.Path(shadowsum.__file__).parent
ERRORS = "errors"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_graph(src: pathlib.Path = SRC) -> dict[str, set[str]]:
    """Node name -> the node names it references, with the exception
    classes of errors.py merged into the one node `errors`."""
    functions, methods, classes, errors = {}, {}, {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _FUNCTIONS):
                functions.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
                if path.name == "errors.py":
                    errors.add(node.name)
                for item in node.body:
                    if isinstance(item, _FUNCTIONS):
                        methods.setdefault(item.name, []).append(item)

    def name(n):
        return ERRORS if n in errors else n

    def references(nodes) -> set[str]:
        out = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and (sub.id in functions or sub.id in classes):
                    out.add(name(sub.id))
                elif isinstance(sub, ast.Attribute) and sub.attr in methods:
                    out.add(sub.attr)
        return out

    graph: dict[str, set[str]] = {}
    for table in (functions, methods):
        for n, defs in table.items():
            graph.setdefault(n, set()).update(references(defs))
    for n, defs in classes.items():
        built = [item for d in defs for item in [*d.bases, *d.body]
                 if not isinstance(item, _FUNCTIONS) or item.name == "__post_init__"]
        graph.setdefault(name(n), set()).update(references(built))
    return graph


def reachable(graph: dict[str, set[str]], root: str) -> set[str]:
    seen, todo = set(), [root]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo.extend(graph.get(n, ()))
    return seen


ABELIAN_SHARED = {
    ERRORS: "exception types only",
    "Link": "the input link both routes evaluate",
    "Loop": "the input's loops; building one only projects and measures its segments",
    "nseg": "a loop's segment count",
    "winding_s1": "the circle winding: both return 0 unless the windings sum to 0",
    "ind": "the planar winding number, the index the paper's formula is written in",
    "_orient": "the exact orientation predicate inside ind",
    "_seg_point_dist": "ind's check that its point is off the curve",
    "DoublePoint": "the crossing record type; each route makes its own records",
    "s1_order": "the t0-cut order of a crossing's strands, the paper's pairing",
    "_loop_marks": "a loop's crossing marks, where both routes correct by winding numbers",
    "_lift_scan": "the one scan of a loop's lift for its marks",
    "lift_table": "the t0-free half of the one lift scan both routes read",
    "_unit": "the unit tangent at a mark",
}

PAIRSUM_SHARED = {
    ERRORS: "exception types only",
    "Level": "the level k both routes evaluate at",
    "rbar": "k + 2",
}

STATE_SUM_SHARED = {
    ERRORS: "exception types only",
    "Level": "the level k both sums evaluate at",
    "rbar": "k + 2",
    "Shadow": "the input shadow both sums evaluate",
    "ShadowEdge": "the shadow's edge records",
    "ShadowFace": "the shadow's face records",
    "ShadowVertex": "the shadow's vertex records, which the vertex-free sum rejects",
    "quadrants": "a vertex's four faces, read by check_shadow",
    "check_shadow": "the shadow's invariants, checked once when it is built",
    "_face_weight": "the face weight both sums multiply; the pair sum checks it apart",
    "_modified_gleam": "a face's x = gleam - z/2, the constant its face weight reads",
    "_v_dim_doubled": "the quantum dimension kernel inside the face weight",
    "_u_exponent_doubled": "the twist exponent kernel inside the face weight",
    "_quantum_int": "the quantum integer inside the quantum dimension",
}

ROUTE_PAIRS = [
    ("wlo_abelian", "wlo_abelian_intermediate", ABELIAN_SHARED),
    ("wlo_dpfree_pairsum", "state_sum_dpfree", PAIRSUM_SHARED),
    ("wlo_dpfree_pairsum", "state_sum_general", PAIRSUM_SHARED),
    ("state_sum_dpfree", "state_sum_general", STATE_SUM_SHARED),
]


# each module's relative imports: the kernels (quantum) and the geometry
# read only the exception types, and nothing imports the command line
LAYERS = {
    "errors": set(),
    "quantum": {"errors"},
    "geometry": {"errors"},
    "linking": {"errors", "geometry"},
    "random_links": {"geometry"},
    "shadow": {"errors", "geometry", "quantum"},
    "evaluators": {"errors", "geometry", "linking"},
    "files": {"errors", "geometry", "shadow"},
    "cli": {"errors", "evaluators", "files", "geometry", "linking", "quantum", "shadow"},
    "__init__": {"errors", "evaluators", "files", "geometry", "linking", "quantum", "shadow"},
}


def module_imports(src: pathlib.Path = SRC) -> dict[str, set[str]]:
    """Module name -> the package modules it imports, read with `ast` from
    its relative imports (`from .x import y`, `from . import x`)."""
    graph = {}
    for path in sorted(src.glob("*.py")):
        deps = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                deps.update([node.module.split(".")[0]] if node.module
                            else (alias.name for alias in node.names))
    return graph


def test_module_imports_follow_the_layers():
    assert module_imports() == LAYERS


@pytest.fixture(scope="module")
def graph():
    return call_graph()


@pytest.mark.parametrize("route_a, route_b, allowed", ROUTE_PAIRS,
                         ids=[f"{a}-{b}" for a, b, _ in ROUTE_PAIRS])
def test_routes_share_only_allowed_names(graph, route_a, route_b, allowed):
    shared = reachable(graph, route_a) & reachable(graph, route_b)
    assert shared - set(allowed) == set()


@pytest.mark.parametrize("allowed", [ABELIAN_SHARED, PAIRSUM_SHARED, STATE_SUM_SHARED],
                         ids=["abelian", "pairsum", "state_sum"])
def test_allow_lists_name_graph_nodes(graph, allowed):
    assert set(allowed) <= set(graph)


def test_graph_sees_each_route(graph):
    # an empty graph would share nothing and pass vacuously
    assert {"pushoff", "self_link", "loop_min_clearance"} <= reachable(graph, "wlo_abelian")
    assert "pushoff" not in reachable(graph, "wlo_abelian_intermediate")
    # the pair sum and the pair list come from one walk
    assert "_pair_walk" in reachable(graph, "wlo_dpfree_pairsum")
    assert "_pair_walk" in reachable(graph, "enumerate_pairs")
    assert {"_sixj_doubled", "enumerate_colorings"} <= reachable(graph, "state_sum_general")
    assert not {"state_sum_general", "enumerate_colorings"} & reachable(graph, "state_sum_dpfree")
