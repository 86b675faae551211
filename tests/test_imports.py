"""Every name a library module imports is read in that module, and every
public function, method and property a library module defines is read by
some library module.

No linter ships with the project, so these scans are its unused-code checks.
``__init__.py`` re-exports names on purpose and is left out.  A last scan,
over every module, pins the number of values a caller can set.
"""

import ast
import pathlib

import pytest

import dmsn
from dmsn import cli

MODULES = sorted(p for p in pathlib.Path(dmsn.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

# Public definitions no library module reads, each with the reader it is kept
# for.
KEPT_WITHOUT_CALLER = (
    ("complexity.count_params", "acceptance test A1 sums parameters with it"),
    ("blocks.branch_input_gradient",
     "acceptance test A7 measures receptive fields with it"),
    ("pipeline.ClipDataset.subset",
     "acceptance test A8 splits train and held-out subjects with it"),
    ("pipeline.loso_splits", "acceptance test A9 checks the folds with it"),
    ("pipeline.bdi_severity_band",
     "acceptance test A9 checks the bands with it"),
    ("pipeline.mean_frame_displacement",
     "the planned learning check's motion baseline reads it"),
)


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def _unread_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """``module.function`` and ``module.Class.method`` for every public
    definition whose name no module reads as a name or an attribute."""
    defined, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(qualified for qualified, name in defined
                  if not name.startswith("_") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert _unused_imports(tree) == ["line 2: d", "line 1: os"]


def test_every_public_definition_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path)) for path in MODULES}
    assert _unread_definitions(trees) == \
        sorted(name for name, _ in KEPT_WITHOUT_CALLER)


def test_the_scan_sees_an_unread_definition():
    source = ("def used():\n    pass\n"
              "def unused():\n    used()\n"
              "class K:\n"
              "    def method(self):\n        pass\n"
              "    @property\n    def prop(self):\n        return self.method()\n"
              "    def _private(self):\n        pass\n")
    assert _unread_definitions({"m": ast.parse(source)}) == \
        ["m.K.prop", "m.unused"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    named = (d.func if isinstance(d, ast.Call) else d
             for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in named)


def _not_init(value: ast.expr) -> bool:
    """``field(..., init=False)``."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant)
        and k.value.value is False for k in value.keywords)


def _settable_values(tree: ast.Module) -> int:
    """Defaulted parameters of every function, nested and private ones
    included, plus defaulted dataclass fields that the constructor takes."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and not _not_init(s.value) for s in node.body)
    return count


def test_settable_value_count():
    """Every value a caller can set: the library's defaults and constructor
    fields, and one per flag of each subcommand (the global ones included).

    Change the pinned number only on purpose, and record the change and the
    reason in CHANGES.md.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in pathlib.Path(dmsn.__file__).parent.glob("*.py")]
    flags = sum(len(opts) + len(cli.GLOBAL_OPTS)
                for _, opts in cli.SUBCOMMANDS.values())
    assert sum(map(_settable_values, trees)) + flags == 113


def test_the_count_sees_defaults_and_init_fields():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2, d):\n"
              "    def g(e=3):\n        pass\n"
              "@dataclass(frozen=True)\n"
              "class K:\n"
              "    x: int\n    y: int = 0\n"
              "    z: list = field(default_factory=list)\n"
              "    w: int = field(default=0, init=False)\n"
              "class Plain:\n    v: int = 0\n")
    assert _settable_values(ast.parse(source)) == 5
