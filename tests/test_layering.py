"""The package API and the line between production code and the references.

`holant` exports a fixed set of names, the layer functions are imported from
their own modules, and every reference computation lives in `holant.oracle`,
which no production module imports. The package re-exports four of its names,
and the command line uses only `brute_holant`, for its `oracle` subcommand.
Every production definition is reached from the command line or the API.
Every module of the package imports only the standard library and itself, and
one function each holds the fugacity rule, the eps rule and the check of a
reference matching. No production walk calls itself, a linear system
reads its matrix once, and one table holds the zero-free radii. One method
each checks F0 and the graph an assignment was built for. `approx` hands the
family kernel the walk's polymers as plain items, which the kernel orders.
"""

import ast
import inspect
import sys
import types
from collections import defaultdict
from pathlib import Path

import holant
from holant import (
    bounds,
    cli,
    errors,
    expansion,
    families,
    graph,
    linsys,
    mcmc,
    polymers,
    signatures,
)

API = sorted([
    # errors
    "ConditionViolated", "DegenerateDistribution", "GateExceeded", "HolantError",
    "InvalidFugacity", "NotInF0", "ParseError", "RegionViolation", "UnsupportedWeights",
    # graphs and signatures
    "MultiGraph", "Signature", "SignatureAssignment", "make_signature",
    "uniform_assignment", "assignment_from_json", "assignment_to_json",
    # deterministic approximation
    "approx_polynomial_report", "approx_problem_report", "ApproxReport",
    # chain
    "sample_assignments", "fpras_estimate", "FprasReport", "mixing_time", "tau_floor",
    # regions and certificates
    "region_bounds", "RegionReport", "FAMILIES", "verify_kp", "KpReport",
    # linear systems and perfect matchings
    "weighted_count", "LinearSystem", "LinsysReport", "parse_matrix_file", "Hypergraph",
    "pm_polynomial_graph", "pm_polynomial_hypergraph", "parse_pm_file",
    "brute_weighted_count",
    # exact references
    "brute_holant", "exact_gibbs", "brute_polymer_z", "ExactResult",
])

SRC = Path(holant.__file__).parent
PRODUCTION = (holant, bounds, cli, errors, expansion, families, graph, linsys, mcmc,
              polymers, signatures)
REFERENCES = ("polymer_weight", "enumerate_polymers", "weight_map", "ursell",
              "enumerate_clusters", "truncation_order", "assignment_to_family",
              "make_polymer", "is_connected_edge_set", "vertex_value")
# production definitions that nothing in the package reaches, each on purpose
UNREACHED = {
    "cli._Parser.error": "argparse calls it",
    "graph.MultiGraph.edge_vertices": "criteria 01 and 07 and the reference pool read it",
    "mcmc.PolymerChain._base": "criterion 10 and the reference step law read it",
    "mcmc.PolymerChain.mu0": "criterion 10 reads it",
    "polymers.relabel_ground": "the low-temperature approx route (ROADMAP) will call it",
}


def test_package_exports_the_api_and_nothing_else():
    assert len(API) == 42
    assert sorted(holant.__all__) == API
    for name in API:
        assert getattr(holant, name) is not None
    public = sorted(
        name for name, value in vars(holant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == API


def test_one_incidence_type():
    assert linsys.Hypergraph is graph.Hypergraph
    assert issubclass(graph.MultiGraph, graph.Hypergraph)
    # outside graph.py, no comprehension turns `edges` or `incident(v)` into
    # bitmasks: the walks read them from edge_masks() and incident_masks()
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("graph.py", "oracle.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ListComp, ast.GeneratorExp)) and any(
                    isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.LShift)
                    for sub in ast.walk(node)) and \
                    {"edges", "incident"} & _names([g.iter for g in node.generators]):
                found.append((path.name, ast.unparse(node)))
    assert found == []


def test_signatures_own_the_table_format():
    # every production read of a signature table goes through
    # holant.signatures; cli.py reads only the oracle's ExactResult.table and
    # its own --table flag
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("signatures.py", "oracle.py"):
            continue
        reads += [(path.name, ast.unparse(node)) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "table"]
    assert sorted(reads) == [("cli.py", "args.table"), ("cli.py", "args.table"),
                             ("cli.py", "res.table")]
    for name in ("extension_table", "_remap_domain"):
        assert not hasattr(polymers, name)
    assert issubclass(polymers.ColouredPolymer, tuple)
    assert polymers.ColouredPolymer._fields == ("edges", "colours", "vmask")


def _oracle_imports(tree):
    """Names imported from holant.oracle, one list per import statement."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".oracle", "holant.oracle"):
                found.append(sorted(alias.name for alias in node.names))
            elif module in (".", "holant") and any(a.name == "oracle" for a in node.names):
                found.append(["oracle"])
        elif isinstance(node, ast.Import):
            if any(a.name == "holant.oracle" for a in node.names):
                found.append(["holant.oracle"])
    return found


def test_only_the_cli_imports_the_references():
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        seen.add(path.name)
        found = _oracle_imports(ast.parse(path.read_text()))
        if path.name == "cli.py":
            assert found == [["brute_holant"]]
        elif path.name == "__init__.py":  # the four exported references
            assert found == [["ExactResult", "brute_holant", "brute_polymer_z", "exact_gibbs"]]
        else:
            assert found == [], path.name
    assert {"__init__.py", "bounds.py", "cli.py", "expansion.py", "mcmc.py"} <= seen


def test_production_modules_hold_no_reference():
    for module in PRODUCTION:
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for name in REFERENCES:
                assert not hasattr(owner, name), (module.__name__, owner, name)


def _names(nodes):
    """Every name and attribute name read in the given AST nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _unreached():
    """Top-level functions, classes and methods of the production modules that
    no walk from `cli.main`, `holant.__all__` and module-level code reaches.

    The walk goes by name, never enters `holant.oracle`, and counts a use of a
    name as a use of every definition of that name. A reached class reaches
    its dunder methods and the names in its class body; its other methods
    must be reached by name.
    """
    defs, by_name = {}, defaultdict(list)
    names = {"main"} | set(holant.__all__)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names |= _names([node])
                continue
            found = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{item.name}", item) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            for qual, item in found:
                defs[f"{path.stem}.{qual}"] = item
                by_name[item.name].append(f"{path.stem}.{qual}")
    todo = [q for name in names for q in by_name[name]]
    reached = set()
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        node = defs[qual]
        if isinstance(node, ast.ClassDef):
            body = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
            seen = _names(body + node.bases + node.decorator_list)
            todo += [f"{qual}.{s.name}" for s in node.body if isinstance(s, ast.FunctionDef)
                     and s.name.startswith("__") and s.name.endswith("__")]
        else:
            seen = _names([node])
        todo += [q for name in seen for q in by_name[name]]
    return sorted(set(defs) - reached)


def test_every_production_definition_is_reached():
    assert _unreached() == sorted(UNREACHED)


def _bindings():
    """(module, name) of every name bound anywhere in the production modules."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                found.append((path.name, node.id))
            elif isinstance(node, ast.alias):
                found.append((path.name, node.asname or node.name))
    return found


def test_one_work_gate():
    gates = sorted({b for b in _bindings() if b[1].endswith("_GATE")})
    # the reference brute_weighted_count keeps its box gate for bench/refs.py
    assert gates == [("errors.py", "WORK_GATE"), ("linsys.py", "SUPPORT_BOX_GATE")]
    assert [b for b in _bindings() if b[1] == "WORK_GATE"] == [("errors.py", "WORK_GATE")]
    assert "gate" not in inspect.signature(families.family_sum).parameters
    # every production GateExceeded comes from errors.past_gate, except in
    # the two references that bench/refs.py runs with their gates lifted
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for top in ast.parse(path.read_text()).body:  # by top-level definition
            raisers += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                        if isinstance(node, ast.Call)
                        and ast.unparse(node.func).endswith("GateExceeded")]
    assert sorted(raisers) == [
        ("errors.py", "past_gate"),
        ("linsys.py", "brute_weighted_count"),
        ("linsys.py", "perfect_matchings"),
    ]


def _raisers(*phrases):
    """(module, function) of every raise whose text holds one of phrases."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise) and any(
                        p in ast.unparse(node) for p in phrases
                    ):
                        found.add((path.name, fn.name))
    return sorted(found)


def test_one_fugacity_rule():
    raisers = _raisers("fugacities, got", "fugacities must be finite", "z_0 must be")
    outside_oracle = [r for r in raisers if r[0] != "oracle.py"]
    assert outside_oracle == [
        ("cli.py", "parse_z"),  # reads outside text
        ("polymers.py", "relabel_ground"),  # only permutes z
        ("signatures.py", "check_fugacities"),
    ]


def test_one_matching_rule():
    # both pm modes check the reference matching in one place, and the
    # graph and hypergraph entry points are one function
    assert _raisers("matching edges overlap", "reference set is not a perfect matching") == [
        ("linsys.py", "_mates"),
    ]
    assert not hasattr(graph.Hypergraph, "is_perfect_matching")
    assert linsys.pm_polynomial_graph is linsys.pm_polynomial_hypergraph


def test_one_eps_rule():
    assert _raisers("eps must be positive and finite") == [("expansion.py", "_require_eps")]
    assert mcmc._require_eps is expansion._require_eps


def _calls(name):
    """(module, top-level definition) of every production call to name, one
    entry per call."""
    found = []
    for m in PRODUCTION:
        path = Path(m.__file__)
        for top in ast.parse(path.read_text()).body:
            found += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and ast.unparse(node.func) == name]
    return sorted(found)


def test_each_entry_point_certifies_once():
    # the chain commands charge, certify and build in one step; approx
    # certifies in one body, which reads each region bound through its
    # certificate, and the problem entry point is that body at z = 1
    assert _calls("certify_chain") == [("mcmc.py", "_chain_map")]
    assert _calls("PolymerChain") == [("mcmc.py", "_chain_map")]
    assert [c for c in _calls("region_bounds") if c[0] in ("expansion.py", "mcmc.py")] == [
        ("expansion.py", "_fugacity"),
        ("expansion.py", "_problem"),
        ("mcmc.py", "certify_chain"),
    ]
    assert [name for name, _ in expansion.CERTIFICATES] == ["fugacity", "problem"]
    assert _calls("approx_polynomial_report") == [
        ("cli.py", "_cmd_approx"),
        ("expansion.py", "approx_problem_report"),
    ]
    assert not hasattr(expansion, "_truncated_report")


def test_the_family_kernel_orders_its_instance():
    # callers pass the hypergraph the items live on; only the kernel picks
    # the vertex order, and it keeps no helper to check a given one
    readers = [m.__name__ for m in PRODUCTION
               if "bfs_order" in _names([ast.parse(Path(m.__file__).read_text())])]
    assert readers == ["holant.families"]  # graph.py only defines it
    assert [b for b in _bindings() if b[1] == "bfs_order"] == [("families.py", "bfs_order")]
    assert _calls("bfs_order") == [("families.py", "family_sum")]
    assert not hasattr(families, "_prefix_masks") and not hasattr(families, "_first_position")
    assert list(inspect.signature(families.family_sum).parameters) == ["items", "H", "cap"]


def test_a_linear_system_reads_its_matrix_once():
    # LinearSystem builds its columns, live columns and H_A once, in
    # __post_init__; nothing derives them again, and a vector polymer is a
    # plain record
    assert not hasattr(linsys, "build_hypergraph")
    for name in ("column_rows", "live_columns", "row_support", "col_support"):
        assert not hasattr(linsys.LinearSystem, name)
    tree = ast.parse(Path(linsys.__file__).read_text())
    builds = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "Hypergraph"]
    cls = next(top for top in tree.body if getattr(top, "name", None) == "LinearSystem")
    post_init = next(fn for fn in cls.body if getattr(fn, "name", None) == "__post_init__")
    assert len(builds) == 1 and builds[0] in ast.walk(post_init)
    assert issubclass(linsys.VectorPolymer, tuple)
    assert linsys.VectorPolymer._fields == ("values", "rmask")


def test_one_table_of_radii():
    # each bound family is one RADII entry: region_bounds compares no family
    # name, and the bounds command's flags come from PARAM_TYPES
    assert not hasattr(bounds, "FAMILY_PARAMS")
    assert bounds.FAMILIES == tuple(bounds.RADII)
    tree = ast.parse(Path(bounds.__file__).read_text())
    region = next(top for top in tree.body if getattr(top, "name", None) == "region_bounds")
    compared = [ast.unparse(node) for node in ast.walk(region) if isinstance(node, ast.Compare)
                and any(isinstance(side, ast.Constant) and side.value in bounds.FAMILIES
                        for side in [node.left, *node.comparators])]
    assert compared == []
    assert "AssertionError" not in _names([tree])
    assert 'add_argument("--delta"' not in Path(cli.__file__).read_text()


def test_one_f0_rule_and_one_graph_check():
    # the walk and the KP tail read F0 and r(F) from the assignment
    raisers = _raisers("has f(0,...,0) = 0")
    assert [r for r in raisers if r[0] != "oracle.py"] == [
        ("signatures.py", "check_f0"),
        ("signatures.py", "ratio_r"),
    ]
    assert _raisers("bound to another graph") == [("signatures.py", "check_graph")]
    tail = next(top for top in ast.parse(Path(bounds.__file__).read_text()).body
                if getattr(top, "name", None) == "_kp_tail")
    assert "ratio_r" not in _names([tail])


def test_modules_import_only_the_standard_library():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "holant" or top in sys.stdlib_module_names, (path.name, name)


def _self_callers(path):
    """(file, top-level def, def) of each def in path that calls its own name."""
    found = []

    def scan(node, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                       and c.func.id == child.name for c in ast.walk(child)):
                    found.append((path.name, top or child.name, child.name))
                scan(child, top or child.name)
            else:
                scan(child, top)

    scan(ast.parse(path.read_text()), None)
    return found


def test_production_walks_never_recurse():
    # a walk that recurses once per step nests as deep as its input, past
    # the interpreter's recursion limit; what still recurses is the report
    # printing, as deep as a report nests
    found = sorted(hit for m in PRODUCTION for hit in _self_callers(Path(m.__file__)))
    assert found == [
        ("cli.py", "_json_text", "_json_text"),
        ("cli.py", "_print_text", "_print_text"),
    ]


def test_approx_hands_the_kernel_plain_items():
    # log_z_coefficients passes the walk's (vmask, size, w) items to the
    # kernel, which alone orders them: the approx route builds no polymer
    # record and sorts nothing, and of the production modules only the chain
    # reads sort_key (polymers.py defines it)
    assert not hasattr(polymers, "live_polymers")
    readers = [m.__name__ for m in PRODUCTION
               if "sort_key" in _names([ast.parse(Path(m.__file__).read_text())])]
    assert readers == ["holant.mcmc"]
    tree = ast.parse(Path(expansion.__file__).read_text())
    route = next(top for top in tree.body if getattr(top, "name", None) == "log_z_coefficients")
    assert not {"ColouredPolymer", "sort", "sorted", "sort_key"} & _names([route])
