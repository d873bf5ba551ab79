"""Source checks that a linter would make: no unused import and no unused
private module-level name in the package.

A name counts as used when its module loads it anywhere, lists it in
``__all__``, or, for a private name, when another package module imports it.
"""

import ast
import pathlib

import vesseltopo

_PACKAGE = pathlib.Path(vesseltopo.__file__).parent


def _parse_package() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(_PACKAGE.glob("*.py"))}


def _loaded(tree) -> set:
    """Names the module loads, plus the entries of its ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names |= {elt.value for elt in node.value.elts}
    return names


def _imported(tree) -> list:
    """(bound name, line) of every import in the module, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.lineno) for a in node.names]
    return found


def _private_definitions(tree) -> list:
    """(name, line) of every private name bound by a top-level statement."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(id=node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                name = getattr(leaf, "id", "")
                if name.startswith("_") and not name.startswith("__"):
                    found.append((name, node.lineno))
    return found


def test_no_unused_imports():
    unused = [f"{stem}.py:{line} {name}"
              for stem, tree in _parse_package().items()
              for name, line in _imported(tree) if name not in _loaded(tree)]
    assert not unused, f"unused imports: {unused}"


def test_no_unused_private_module_names():
    trees = _parse_package()
    imported_elsewhere = {(node.module, alias.name)
                          for tree in trees.values() for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) and node.level
                          for alias in node.names}
    unused = [f"{stem}.py:{line} {name}"
              for stem, tree in trees.items()
              for name, line in _private_definitions(tree)
              if name not in _loaded(tree) and (stem, name) not in imported_elsewhere]
    assert not unused, f"unused private module-level names: {unused}"
