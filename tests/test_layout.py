"""Every top-level function and class in ``src/psrsim`` is reached from
the package itself: a definition that only tests call belongs in the
tests (``conftest.py`` holds the oracles)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "psrsim"

# module.name -> why nothing in src/psrsim refers to it
ENTRY_POINTS = {
    "cli.sweep": "click command",
    "cli.noise": "click command",
    "cli.limits": "click command",
    "cli.matsko_cmd": "click command",
    "cli.fit": "click command",
    "cli.polarimetry": "click command",
    "fluct.commutator_residual": "bench/workloads.py checks every spectrum",
    "ensemble._fit_model": "bench/workloads.py makes its synthetic traces",
}


def reached():
    """module.name -> whether the name is loaded, bare or as an
    attribute, anywhere in src/psrsim outside its own definition."""
    defs, refs = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                refs.setdefault(n.attr, []).append(n)
    out = {}
    for key, node in defs.items():
        own = set(map(id, ast.walk(node)))
        out[key] = any(id(n) not in own for n in refs.get(node.name, ()))
    return out


def test_every_definition_is_reached_from_the_package():
    unreached = sorted(k for k, used in reached().items()
                       if not used and k not in ENTRY_POINTS)
    assert unreached == [], (
        f"defined in src/psrsim but used only from outside it: {unreached}")


def test_entry_points_exist_and_are_not_reached_from_the_package():
    used = reached()
    assert set(ENTRY_POINTS) <= set(used)
    stale = sorted(k for k in ENTRY_POINTS if used[k])
    assert stale == [], f"used in src/psrsim, drop from ENTRY_POINTS: {stale}"
