"""The ``pdqp`` package ships only what a solve or its oracle needs: every
top-level function and class of ``src/pdqp`` must be referenced."""

import ast
import types
from pathlib import Path

import pdqp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdqp"

# Referenced from outside src/pdqp only, each for the reason given.
ALLOWED = {
    ("cli", "main"): "the pdqp console script of pyproject.toml",
    ("cli", "emit_problem"): "bench writes QPT files with it",
    ("cli", "read_runlog"): "the public reader of the run logs that run "
                            "writes",
}


def _traced():
    """(module, function) of every ``bench/tracing.TARGETS`` entry."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return {(mod, fn) for mod, fn, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py has no TARGETS")


def _reads(node):
    """Every name that ``node`` reads as a variable or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_top_level_name_is_referenced():
    # A top-level function or class is live when it is exported, traced or
    # allowed, or when module-level code or a live definition reads its
    # name; what stays dead once nothing more turns live is unreferenced.
    traced = _traced()
    dead, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                dead[(path.stem, node.name)] = node
            else:
                read |= _reads(node)
    grew = True
    while grew:
        grew = False
        for key, node in list(dead.items()):
            if (key[1] in read or key[1] in pdqp.__all__ or key in traced
                    or key in ALLOWED):
                del dead[key]
                read |= _reads(node)
                grew = True
    assert not dead, sorted(f"{m}.{name}" for m, name in dead)


def test_the_package_binds_only_its_public_api():
    # Building blocks are imported from their modules (pdqp.kkt, ...): the
    # package binds __all__ and __version__ next to its submodules.
    bound = {name for name, value in vars(pdqp).items()
             if not name.startswith("__")
             and not isinstance(value, types.ModuleType)}
    assert bound == set(pdqp.__all__)
    assert pdqp.__version__ == "0.1.0"
