"""The benchmark under perfbench/ reaches into the program by name: its
tracer wraps public functions at their module attributes, and its
workloads call the program through its modules.  Renaming or deleting
any of those names, or a parameter its scripts pass by keyword, breaks
the benchmark, so they are checked here.  perfbench/ is only read, never
changed."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped():
    """The tracer's WRAPPED table, read from spans.py without running it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED":
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py defines no WRAPPED table")


def _module_names(tree):
    """Names a script binds to modules of the program: `from twistbethe...
    import x` and `x = importlib.import_module("twistbethe...")`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twistbethe"):
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"):
            names[node.targets[0].id] = node.value.args[0].value
    return names


def test_tracer_targets_exist():
    for path, names in _wrapped().items():
        module = importlib.import_module(path)
        for name in names:
            assert callable(getattr(module, name, None)), f"{path}.{name}"
    model = importlib.import_module("twistbethe.model")
    scaling = importlib.import_module("twistbethe.scaling")
    assert callable(model.ChainOperator.matvec)
    assert callable(scaling.least_squares)


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py", "baselines.py"])
def test_benchmark_scripts_reach_existing_names(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    bound = _module_names(tree)
    reached = set()
    for node in ast.walk(tree):
        # `module.name`, or `(module, "name")` as selftest passes what it patches
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reached.add((node.value.id, node.attr))
        elif isinstance(node, ast.Tuple):
            for owner, name in zip(node.elts, node.elts[1:]):
                if (isinstance(owner, ast.Name) and owner.id in bound
                        and isinstance(name, ast.Constant) and isinstance(name.value, str)):
                    reached.add((owner.id, name.value))
    assert reached
    for name, attr in sorted(reached):
        module = importlib.import_module(bound[name])
        assert hasattr(module, attr), f"{script}: {bound[name]}.{attr}"


def _program_callable(node, bound):
    """The program's callable that `module.name` in a script refers to, or None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound):
        target = getattr(importlib.import_module(bound[node.value.id]), node.attr, None)
        return target if callable(target) else None
    return None


def test_benchmark_scripts_pass_existing_keywords():
    # keywords reach a program callable either directly, `module.f(..., k=v)`,
    # or through a wrapper that receives it positionally, `timed(label,
    # module.f, ..., k=v)`, which passes on every keyword it does not declare
    checked = []
    for script in ("workloads.py", "selftest.py", "baselines.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        bound = _module_names(tree)
        declared = {node.name: {a.arg for a in node.args.args + node.args.kwonlyargs}
                    for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            target = _program_callable(call.func, bound)
            if target is None:
                target = next(filter(None, (_program_callable(a, bound) for a in call.args)),
                              None)
                wrapper = (call.func.attr if isinstance(call.func, ast.Attribute)
                           else ast.unparse(call.func))
                keywords -= declared.get(wrapper, set())
            if target is None or not keywords:
                continue
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for keyword in sorted(keywords):
                assert (keyword in params
                        and params[keyword].kind is not inspect.Parameter.POSITIONAL_ONLY), \
                    f"{script}: {ast.unparse(call)[:80]} passes {keyword}="
            checked.append((script, target.__name__, sorted(keywords)))
    assert checked
