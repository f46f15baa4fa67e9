"""Source checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multidendro"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(module):
    """Map each name an import statement binds -> its line number."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_package_modules_found():
    assert {"agglomerate.py", "tree.py", "render.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py is left out: its imports are the package's public names
    module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = sorted((line, name)
                    for name, line in imported_names(module).items()
                    if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % (name, line)
                             for line, name in unused))


def _names_used(tree, skip=None):
    """Every name a bare name, an attribute or an import refers to in
    ``tree``, leaving out the subtree ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_src_definition_has_a_src_user():
    # code that only the tests use lives under tests/, so every module-level
    # function and class is used by other package code or exported by
    # __init__; a name its own body refers to does not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for name, module in trees.items():
        elsewhere = set().union(*(_names_used(other) for key, other
                                  in trees.items() if key != name))
        for node in module.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in elsewhere
                    and node.name not in _names_used(module, skip=node)):
                unused.append("%s: %s" % (name, node.name))
    assert not unused, "defined but used by no package code: %s" % (
        ", ".join(unused))


def _oracle_imports(module_name):
    path = Path(__file__).resolve().parent / "oracles.py"
    module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(alias.name for node in ast.walk(module)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == module_name
                  for alias in node.names)


def test_oracles_share_no_header_or_precision_code():
    # the reference readers word errors as the package does, through
    # _parse_value and _split_rows, but find headers and precisions alone
    private = [name for name in _oracle_imports("multidendro.proximity")
               if name.startswith("_")]
    assert set(private) <= {"_SYM_TOL", "_parse_value", "_split_rows"}, private


def test_oracles_share_no_block_update_code():
    # vg_kernel is the scalar reference for the engine's block update, so
    # it sums its own terms and computes its own within sums
    shared = set(_oracle_imports("multidendro.linkage"))
    assert not shared & {"vg_update", "within_term", "_terms", "_sums"}, shared


def test_oracles_share_no_enumerator_code():
    # kept_pair_group_outcomes builds a tree per raw outcome on its own,
    # so it checks the enumerator's sweep, merge keys and node interning
    assert not _oracle_imports("multidendro.agglomerate")
    assert "agglomerate" not in _oracle_imports("multidendro")


def _self_calls(module, prefix=""):
    """Qualified names of the functions in ``module`` that call their own
    name, bare, anywhere in their body."""
    found = []
    for node in ast.iter_child_nodes(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            if any(isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id == node.name
                   for call in ast.walk(node)):
                found.append(name)
            found.extend(_self_calls(node, name + "."))
        elif isinstance(node, ast.ClassDef):
            found.extend(_self_calls(node, prefix + node.name + "."))
        else:
            found.extend(_self_calls(node, prefix))
    return found


def test_no_function_calls_itself():
    # trees of any depth are walked with explicit stacks and the enumerator
    # sweeps one merge level at a time, so nothing may recurse
    allowed = set()
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        found.update("%s: %s" % (path.name, name)
                     for name in _self_calls(module))
    assert found == allowed


def test_one_newick_height_format():
    # to_newick_extended and merge_newick_texts, the enumerator's writer,
    # end every internal node's text with tree._CLOSING, so no second
    # writer of the bracketed heights can drift from it
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             for _ in range(path.read_text(encoding="utf-8")
                            .count("[%.*f,%.*f]"))]
    assert found == ["tree.py"]
    assert {where for where, node in _package_nodes()
            if getattr(node, "id", None) == "_CLOSING"
            and isinstance(node.ctx, ast.Load)} == {
        "tree.py: to_newick_extended", "tree.py: merge_newick_texts"}


def _scoped(module):
    """(qualified name of the innermost def or class, or "", node) for every
    node in ``module``."""
    stack = [("", module)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (scope + "." if scope else "") + node.name
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _package_nodes():
    """("module.py: scope", node) for every node of every package module."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in _scoped(module):
            yield "%s: %s" % (path.name, scope), node


def _call_sites(name):
    """Where the package calls ``name``, bare or as an attribute."""
    return {where for where, node in _package_nodes()
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))}


def test_one_merge_step():
    # ClusterState.merge computes every distance update, through
    # linkage.vg_update, and writes it, so no engine keeps a merge path
    # of its own
    writes = set()
    for where, node in _package_nodes():
        scope = where.split(": ")[1]
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)):
            base = node.value  # dist[:, s][cols] is stored through dist
            while isinstance(base, ast.Subscript):
                base = base.value
            if (getattr(base, "attr", None) == "dist"
                    and scope.split(".")[0] != "ClusterState"):
                writes.add(where)
    assert _call_sites("vg_update") == {"agglomerate.py: ClusterState.merge"}
    assert not writes, "distances written outside ClusterState: %s" % writes


def test_one_tie_scan():
    # ClusterState.shortest alone turns a least value into the edge below
    # which distances tie with it, for one state and for a stack, so no
    # second scan for tied pairs can drift from it
    assert _call_sites("tie_edge") == {"agglomerate.py: ClusterState.shortest"}


def test_one_reversal_scan():
    # a reversal is a node that tops its parent: tree.reversal_edges finds
    # them in a tree, and detect_reversals reads a trace as the tree its
    # groups form, so no second scan can drift; the variable-group engine
    # asks reversals_between only for its per-iteration flag, and the
    # enumerator's writer asks the rule under it for each merge it writes
    assert _call_sites("reversals_between") == {
        "tree.py: reversal_edges", "agglomerate.py: cluster_variable_group"}
    assert _call_sites("_reversals") == {
        "tree.py: reversals_between", "tree.py: merge_newick_texts"}
    assert _call_sites("ReversalReport") == {
        "agglomerate.py: detect_reversals"}
