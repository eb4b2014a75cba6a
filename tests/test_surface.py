"""Every exported name, public method and dataclass field has a reader in
the program.

The program is the code under ``src/blpcs`` and ``bench/``; tests do not
count as readers.  The scan is syntactic: a name counts as used when it is
loaded as a name or read as an attribute anywhere in that code, and a method
or a field of an exported dataclass when it is read as an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "blpcs").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# kept without a caller in the program, each for a stated reason
ALLOWED = {
    "blp_decode": "the paper's keyed decode of one signal, the inverse of blp_encode",
    "acceptable_permutation_stats": "acceptance criterion 7 (scramble sparsity tail)",
    "l0_bruteforce": "acceptance criterion 8 (the exhaustive oracle)",
}

# exported dataclasses whose fields are kept without a reader in the program
ALLOWED_FIELDS = {
    "ScrambleStats": "acceptance criterion 7 reads the fields "
                     "acceptable_permutation_stats returns",
}


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
        unused += [f"{path.stem}.{n}" for n in sorted(exported - names - attrs - set(ALLOWED))]
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
            if (isinstance(cls, ast.ClassDef) and cls.name in exported
                    and _is_dataclass(cls) and cls.name not in ALLOWED_FIELDS):
                unread += [f"{path.stem}.{cls.name}.{f.target.id}" for f in cls.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                           and f.target.id not in attrs]
    assert not unread, "never read in src/blpcs or bench/: " + ", ".join(unread)
