"""Source-level guards over the package modules."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bottclass"


def package_trees():
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(PACKAGE.glob("*.py"))]


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def imports_package(node):
    """Is node an import of the package or of one of its modules?"""
    if isinstance(node, ast.ImportFrom):
        return bool(node.level) or (node.module or "").partition(".")[0] == "bottclass"
    return isinstance(node, ast.Import) and any(
        alias.name.partition(".")[0] == "bottclass" for alias in node.names)


def called(node):
    """The name a call node calls: `f(...)` and `x.f(...)` both give f."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every invariant check must raise
    trees = package_trees()
    assert len(trees) >= 9
    found = [f"{path.name}:{node.lineno}" for path, tree in trees
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def absolute_imports():
    """(module file, line, top-level name) of every absolute import."""
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, name.partition(".")[0]) for name in names)


def test_package_imports_only_the_standard_library():
    # dependency-free: every import is relative or names a stdlib module
    found = [f"{module}:{line}:{name}" for module, line, name in absolute_imports()
             if name not in sys.stdlib_module_names]
    assert found == []


def test_package_imports_no_random_number_generator():
    # every check of the package is deterministic
    found = [f"{module}:{line}" for module, line, name in absolute_imports() if name == "random"]
    assert found == []


def test_no_module_reads_a_private_name_of_another():
    # one home per idiom: a helper another module needs is public
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path, tree in package_trees():
        bound = set()  # local names of package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and imports_package(node):
                for alias in node.names:
                    if node.module in (None, "bottclass") and alias.name in modules:
                        bound.add(alias.asname or alias.name)
                    elif is_private(alias.name):
                        found.append(f"{path.name}:{node.lineno}:{alias.name}")
        found += [f"{path.name}:{node.lineno}:{node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and is_private(node.attr)]
    assert found == []


def test_no_function_imports_a_package_module():
    # a local import of a package module hides an import cycle and runs on
    # every call; standard-library imports inside functions are allowed
    found = {f"{path.name}:{node.lineno}"
             for path, tree in package_trees()
             for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if imports_package(node)}
    assert found == set()


def test_value_types_are_built_only_at_the_boundary():
    # below the public API a GF(2) vector or matrix is an int mask: only the
    # RingIsoWitness of rigidity.py builds a Gf2Mat
    found = []
    for path, tree in package_trees():
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        witness_args = {id(arg) for node in calls if called(node) == "RingIsoWitness"
                        for arg in node.args}
        found += [f"{path.name}:{node.lineno}:{called(node)}" for node in calls
                  if called(node) == "Gf2Mat" and not (path.name == "rigidity.py"
                                                       and id(node) in witness_args)]
    assert found == []


def test_generators_of_builds_no_compose_chain_and_no_hnf_closure():
    # generators_of reads the presentation of Gamma(A) in closed form; the
    # compose chains and the lattice closure belong to from_generators, and
    # relators are listed by `relators` alone, so it builds no Relator.
    # Module functions it calls are walked too, so a helper cannot bring
    # them back.
    tree = ast.parse((PACKAGE / "bieberbach.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    banned = {"compose", "_ordered_product", "from_generators", "span", "_hermite", "Relator",
              "relators"}
    found, seen, todo = [], set(), ["generators_of"]
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                callee = called(node)
                if callee in banned:
                    found.append(f"{name}:{node.lineno}:{callee}")
                elif callee in functions and callee not in seen:
                    todo.append(callee)
    assert found == []


def test_spin_reads_lattice_coordinates_through_coords_mod2_only():
    # the lift search writes its rows from the rows of A and reads no
    # lattice; only its re-check reads coordinates, by one route, and the
    # basis rows only as the keys of the lattice character
    tree = ast.parse((PACKAGE / "spin.py").read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "lattice"}
    assert used == {"basis2", "coords_mod2"}


def test_cohomology_builds_a_frozenset_only_in_gf2poly_terms():
    # a polynomial is one packed int; the set of its monomial masks is
    # built only on request, by the read-only Gf2Poly.terms, and by
    # w2_of_rows, whose packed form would take 2^n bits
    tree = ast.parse((PACKAGE / "cohomology.py").read_text())
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and called(node) == "frozenset":
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    assert found == ["Gf2Poly.terms", "w2_of_rows"]


def test_cli_builds_no_ring():
    # the reports read every field from the rows of one strictly upper
    # form; the ring, of 4^n bits per table, is the tests' oracle
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [f"{node.lineno}:{name}" for node in ast.walk(tree)
             for name in [node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)]
             if name in ("ring_of", "CohomRing")]
    assert found == []


def test_sign_tuples_are_built_only_for_holonomy_rep():
    # a diagonal +-1 matrix is the mask of its -1 entries: `_signs` builds
    # the +-1 tuples only for the public output of holonomy_rep, and the
    # one attribute named `signs` that is read is the sign mask of a SpinLift
    found = []

    def visit(module, node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and called(node) == "_signs":
            found.append(f"{module}:{scope}:_signs()")
        if isinstance(node, ast.Attribute) and node.attr == "signs":
            found.append(f"{module}:{scope}:{ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(module, child, scope)

    for module in ("bieberbach.py", "spin.py"):
        visit(module, ast.parse((PACKAGE / module).read_text()), "")
    assert found == ["bieberbach.py:holonomy_rep:_signs()", "spin.py:_verify_lift:lift.signs"]


def test_diffeo_classes_decodes_no_member():
    # the fingerprint is checked on all codes at once: diffeo_classes, and
    # the module functions it calls, decode or transpose a matrix only once
    # per class (in the seed loop) or on the way to raising, never in a
    # loop nested in another
    tree = ast.parse((PACKAGE / "bottmatrix.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    banned = {"_decode", "transpose_masks", "_fingerprint_raw"}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    found = []

    def visit(name, node, depth):
        if isinstance(node, ast.Raise):
            return
        if isinstance(node, ast.Call) and called(node) in banned and depth > 1:
            found.append(f"{name}:{node.lineno}:{called(node)}")
        depth += isinstance(node, loops)
        for child in ast.iter_child_nodes(node):
            visit(name, child, depth)

    seen, todo = set(), ["diffeo_classes"]
    while todo:
        name = todo.pop()
        seen.add(name)
        visit(name, functions[name], 0)
        todo += {called(node) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                 and called(node) in functions and called(node) not in seen}
    assert seen >= {"diffeo_classes", "_swap_orbits", "_move_masks", "_chunk_tables",
                    "_components", "_op23_codes", "_permuted", "_fingerprint_blocks",
                    "_fingerprint_planes"}
    assert found == []


def test_no_message_names_a_matrix_but_through_named():
    # one {"n", "rows"} form for every message: `bottmatrix.named`
    found = [f"{path.name}:{node.lineno}" for path, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Call) and called(node) == "dumps"
             and any(isinstance(arg, ast.Call) and called(arg) == "to_json_dict"
                     for arg in node.args)]
    assert found == []


def decorator_name(node):
    """The name of a decorator: `@f`, `@m.f` and `@f(...)` all give f."""
    if isinstance(node, ast.Call):
        return called(node)
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_package_memos_are_the_listed_ones():
    # every memo of the package, each a cache that a workload needs; a new
    # one is added to this list with the reason it pays for itself
    found = []

    def visit(module, node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if {decorator_name(d) for d in node.decorator_list} & {"lru_cache", "cache",
                                                                     "cached_property"}:
                found.append(f"{module}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(module, child, scope)

    for path, tree in package_trees():
        visit(path.name, tree, "")
    assert found == [
        "bottmatrix.py:_reversed_bits",
        "bottmatrix.py:diffeo_classes",
        "cohomology.py:_lane_masks",
        "rigidity.py:ring_invariants",
        "spin.py:_verify_lift.chi",
    ]


def test_the_relabelling_is_sorted_only_by_the_bott_matrix_constructor():
    # validation sorts each matrix once and keeps the order; every other
    # reader takes the kept one
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and called(node) == "_topo_order":
            found.append(f"{path.name}:{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path, tree in package_trees():
        visit(tree, "")
    assert found == ["bottmatrix.py:BottMatrix.__post_init__"]


def test_checked_types_set_attributes_only_in_their_constructor():
    # CohomRing and TransLattice are checked once, when they are built, and
    # BottMatrix keeps the relabelling its validation finds, so no later
    # call may add or change their state
    found = []
    for module, name in (("cohomology.py", "CohomRing"), ("bieberbach.py", "TransLattice"),
                         ("bottmatrix.py", "BottMatrix")):
        tree = ast.parse((PACKAGE / module).read_text())
        cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in ("__init__", "__post_init__"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    targets = []
                for target in targets:
                    while isinstance(target, ast.Subscript):  # self.x[k] = ... too
                        target = target.value
                    if isinstance(target, ast.Attribute):
                        found.append(f"{name}.{method.name}:{node.lineno}")
                if isinstance(node, ast.Call) and called(node) in ("setattr", "__setattr__"):
                    found.append(f"{name}.{method.name}:{node.lineno}")
    assert found == []
