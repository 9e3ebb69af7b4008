"""Structural rules of the package source, checked on its syntax tree."""

import ast
import pathlib

import pickzeta

SRC = pathlib.Path(pickzeta.__file__).parent
EIGEN = {"eig", "eigh", "eigvals", "eigvalsh"}


def _eigen_uses():
    """(module, enclosing function, name) for every attribute access to or
    import of an eigen-solver in the package, called or not."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            # np.linalg.eigh(...) is an attribute; from-imports are aliases.
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in EIGEN:
                uses.append((path.stem, function, name))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return uses


def test_one_eigen_decomposition_inside_certify_psd():
    # Every PSD and rank verdict is read from a PickCertificate, so a
    # second decomposition would be a second verdict rule.
    assert _eigen_uses() == [("pick", "certify_psd", "eigh")]
