import ast
from pathlib import Path

import treeplane

PACKAGE = Path(treeplane.__file__).parent


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text())


def _imported_modules(module: ast.Module) -> set[str]:
    """Absolute names of the modules a package module imports."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["treeplane" if node.level else "",
                                          node.module]))
            out.add(base)
            # `from . import oracles` names the module among the imports
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def _defined_names(module: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned names of a module."""
    out = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def test_oracles_stay_out_of_production():
    production = sorted(p.stem for p in PACKAGE.glob("*.py")
                        if p.stem != "oracles")
    assert {"suite", "whitney", "analysis", "clusters"} <= set(production)
    importers = {stem for stem in production
                 if "treeplane.oracles" in _imported_modules(_tree(stem))}
    assert importers == {"suite"}
    oracle_names = _defined_names(_tree("oracles"))
    assert {"DyadicSquare", "decompose_naive", "neighbors_naive",
            "_hess_power_sum_pointwise", "brute_force_extension",
            "assign_clusters_naive"} <= oracle_names
    assert not oracle_names & set(treeplane.__all__)
    # and no production module keeps a copy of an oracle
    for stem in production:
        assert not oracle_names & _defined_names(_tree(stem)), stem
