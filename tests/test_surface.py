"""Every exported name, public method and dataclass field has a reader in
the program, and every defaulted parameter of them has a caller that sets it.

The program is the code under ``src/blpcs`` and ``bench/``; tests do not
count as readers.  The scan is syntactic: a name counts as used when it is
loaded as a name or read as an attribute anywhere in that code, and a method
or a field of an exported dataclass when it is read as an attribute.  A
parameter counts as set when a call of that name passes it by keyword or by
position, passes ``*args`` (a positional parameter) or ``**kwargs`` (any
parameter), or when a function of the same name, a wrapper standing in for
it, stores the parameter's name as a key (``kwargs["name"] = ...``) to
forward it.  No name is exempt: a routine that only tests call belongs in
``tests/oracles.py``, and each function there is imported by some test
module.  Every option of every subcommand appears in some argument list of
a test or of the benchmark that names that subcommand first.
"""

import argparse
import ast
from pathlib import Path

from blpcs.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "blpcs").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def _is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _attribute_reads(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_export_and_public_method_has_a_program_caller():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    names = {node.id for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attrs = _attribute_reads(trees)
    unused = []
    for path, tree in trees.items():
        exported = _exports(tree)
        unused += [f"{path.stem}.{n}" for n in sorted(exported - names - attrs)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                unused += [f"{path.stem}.{cls.name}.{f.name}" for f in cls.body
                           if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("_") and f.name not in attrs]
    assert not unused, "no caller in src/blpcs or bench/: " + ", ".join(unused)


def test_every_field_of_an_exported_dataclass_is_read_in_the_program():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    attrs = _attribute_reads(trees)
    unread = []
    for path, tree in trees.items():
        exported = _exports(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported and _is_dataclass(cls):
                unread += [f"{path.stem}.{cls.name}.{f.target.id}" for f in cls.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                           and f.target.id not in attrs]
    assert not unread, "never read in src/blpcs or bench/: " + ", ".join(unread)


def _exported_callables(tree):
    """(name, parameters that may be passed) of each exported function and
    each public method of an exported class, ``self`` left out."""
    exported = _exports(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            yield node.name, node.args, False
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f"{node.name}.{f.name}", f.args, True


def _defaulted(args, method):
    """(position or None, name) of each parameter that has a default."""
    positional = args.posonlyargs + args.args
    if method:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls_by_name(trees):
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _forwarded_keys(trees):
    """(function name, key) of each string key a function stores into a
    mapping, as kwargs["name"] = ..."""
    return {(fn.name, node.slice.value) for tree in trees.values() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)}


def _sets(call, pos, name):
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if pos is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > pos


def test_every_defaulted_parameter_is_set_by_a_program_caller():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    calls = _calls_by_name(trees)
    forwarded = _forwarded_keys(trees)
    unset = []
    for path, tree in trees.items():
        for qualname, args, method in _exported_callables(tree):
            short = qualname.rsplit(".", 1)[-1]
            for pos, name in _defaulted(args, method):
                if (short, name) in forwarded:
                    continue
                if not any(_sets(c, pos, name) for c in calls.get(short, [])):
                    unset.append(f"{path.stem}.{qualname}({name})")
    assert not unset, "no caller in src/blpcs or bench/ sets: " + ", ".join(unset)


def test_every_oracle_is_imported_by_a_test():
    tests = ROOT / "tests"
    imported = {alias.name for path in tests.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    oracles = ast.parse((tests / "oracles.py").read_text())
    unused = [f.name for f in oracles.body
              if isinstance(f, ast.FunctionDef) and f.name not in imported]
    assert not unused, "no test imports oracles." + ", oracles.".join(unused)


def test_every_command_line_option_is_exercised():
    # the string constants of each list literal whose first element is a
    # string, keyed by that string: argument lists as ["keygen", "--n", ...]
    lists = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.List) and node.elts
                    and isinstance(node.elts[0], ast.Constant)):
                lists.setdefault(node.elts[0].value, set()).update(
                    e.value for e in node.elts if isinstance(e, ast.Constant))
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    missing = [f"{name} {opt}" for name, parser in sub.choices.items()
               for action in parser._actions if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings if opt not in lists.get(name, ())]
    assert not missing, "no test or bench argument list passes: " + ", ".join(missing)
