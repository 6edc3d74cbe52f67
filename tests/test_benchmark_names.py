"""The benchmark traces tdcnet functions by name; a renamed function would
silently read -1 there, so every traced name must resolve here."""
import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "tdcbench" / "run.py"


def test_traced_names_resolve():
    # parsed, not imported: importing run.py sets thread environment variables
    tree = ast.parse(RUN_PY.read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    missing = [name for name in traced
               if not callable(getattr(importlib.import_module(
                   "tdcnet." + name.split(".")[0]), name.split(".")[1], None))]
    assert not missing, f"traced names without a tdcnet function: {missing}"
