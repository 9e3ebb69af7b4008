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


def _realization_reads():
    """(name, line) for every reference in realization.py to power_section
    or mobius_range, and every np.linalg.qr call whose mode is neither
    "r" nor "raw" (reduced, the default, and complete form a dense Q)."""
    path = SRC / "realization.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in {"power_section", "mobius_range"}:
            found.append((name, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "qr"):
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else None
            if mode not in ("r", "raw"):
                found.append(("qr", node.lineno))
    return found


def test_realization_reads_sections_from_its_sieve_table():
    # Every trunc-length section and weight comes from the model's
    # SieveTable, and its Q factors from _thin_qr's compact WY form.
    assert _realization_reads() == []
