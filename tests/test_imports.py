"""No module under ``src/qfrt/`` imports a name it never uses (the package
``__init__`` re-exports, so it is left out), no private module-level name is
left that nothing under ``src/qfrt/`` refers to, no module reaches for
another module's private name, only ``linalg`` sets an
array's flags or decides what is an integer, only ``base_transforms``
reads a transform's internals, only ``BaseTransform`` defines and checks
the four operations that reach U**k, only ``circuits.multiplexed_powers``
makes a ``power`` payload op, and only ``FractionalSpec`` and a ``power``
op call a transform's ``check``. Uses only the stdlib ``ast``."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qfrt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_catches_an_unused_import():
    assert unused_imports("import math\nfrom . import linalg\nlinalg.apply\n") == [
        "line 1: math"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> list[str]:
    """The module-level functions, classes and constants named _x (not __x)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(source: str) -> set[str]:
    """Every name read, attribute read or name imported; a definition is none."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_checker_catches_an_unreferenced_private_name():
    source = "_A = 1\n_B: int = 2\ndef _f(): return _A\nclass _C: pass\n_C()\n"
    assert private_definitions(source) == ["_A", "_B", "_f", "_C"]
    assert {"_A", "_C"} <= references(source) and not {"_B", "_f"} & references(source)


def test_every_private_name_is_referenced_under_src():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    defined = [name for source in sources for name in private_definitions(source)]
    used = set().union(*map(references, sources))
    assert len(defined) >= 40
    assert [name for name in defined if name not in used] == []


def private_imports(source: str) -> list[str]:
    """The lines that take another qfrt module's _-prefixed name: ``from
    .mod import _x`` (or ``from qfrt.mod``), or ``mod._x`` on a module
    imported by ``from . import mod``."""
    found, modules = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qfrt")):
            if node.module in (None, "qfrt"):
                modules.update(alias.asname or alias.name for alias in node.names)
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    found += [(node.lineno, f"{node.value.id}.{node.attr}")
              for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_catches_a_private_import():
    source = ("from . import linalg\nfrom .fractional import _column_blocks, column_blocks\n"
              "from qfrt.cli import _fmt\nfrom numpy import _x\nlinalg._GRAM_ROWS, self._phase\n")
    assert private_imports(source) == [
        "line 2: _column_blocks", "line 3: _fmt", "line 5: linalg._GRAM_ROWS"]
    assert private_imports("from __future__ import annotations\nimport numpy as np\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_takes_another_modules_private_name(path):
    # What one module reads of another is public: base_transforms.order_and_residue
    # and fractional.column_blocks once went by _-prefixed names.
    assert private_imports(path.read_text(encoding="utf-8")) == []


def setflags_calls(source: str) -> list[str]:
    """The lines that call a ``setflags`` method."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"]


def test_checker_catches_a_setflags_call():
    source = "import numpy as np\na = np.eye(2)\nnp.ndarray.setflags(a, write=False)\n"
    assert setflags_calls(source) == ["line 3"]
    assert setflags_calls("a.view()\n") == []


NOT_LINALG = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")


@pytest.mark.parametrize("path", NOT_LINALG, ids=[p.name for p in NOT_LINALG])
def test_only_linalg_sets_array_flags(path):
    # linalg.sealed is the one read-only rule; nothing else may set or clear a flag.
    assert setflags_calls(path.read_text(encoding="utf-8")) == []


#: A transform's internals: what it stores to answer power, apply,
#: apply_sum and power_sum, its proof's working, and the builders' private
#: class. Only base_transforms may read them.
TRANSFORM_INTERNALS = frozenset({"_perm", "table_dev", "_table", "_values", "_layout", "_fft",
                                 "_products", "_fault", "_TableTransform",
                                 "_power", "_apply", "_apply_sum", "_power_sum"})


def internal_reads(source: str) -> list[str]:
    """The lines that read a transform's internal, as an attribute, as a
    name string (``vars(t)["_layout"]``, ``getattr(t, "_fft")``), as an
    imported name or as a keyword argument (``_TableTransform(..., _fft=f)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            name = node.value
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.keyword):
            name = node.arg
        else:
            continue
        if isinstance(name, str) and name in TRANSFORM_INTERNALS:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_catches_a_read_of_a_transforms_internals():
    source = "def f(t, w):\n    p = t._perm\n    return vars(t)['_layout'], t.power_sum(w)\n"
    assert internal_reads(source) == ["line 2: _perm", "line 3: _layout"]
    source = "from .base_transforms import _TableTransform as T\nT('x', 1, 1, _fft=f)\n"
    assert internal_reads(source) == ["line 1: _TableTransform", "line 2: _fft"]
    assert internal_reads("t.apply(x, 1)\n'_perm is private'\n") == []


NOT_BASE_TRANSFORMS = sorted(p for p in SRC.glob("*.py") if p.name != "base_transforms.py")


@pytest.mark.parametrize("path", NOT_BASE_TRANSFORMS, ids=[p.name for p in NOT_BASE_TRANSFORMS])
def test_only_base_transforms_reads_a_transforms_internals(path):
    # Every other module reaches U**k through power, apply, apply_sum and power_sum.
    assert internal_reads(path.read_text(encoding="utf-8")) == []


#: The four operations by which other modules reach U**k.
OPERATIONS = ("power", "apply", "apply_sum", "power_sum")


def operation_checks(source: str) -> tuple[list[str], list[str]]:
    """The ``Class.method`` of each method named in :data:`OPERATIONS`, in
    source order, and ``where: callee`` for each call of ``_block``, of
    ``_weights`` or of ``check_int`` on the name ``k``, sorted, ``where`` its
    enclosing ``Class.method`` or module-level function."""
    defined, checks = [], []
    for top in ast.parse(source).body:
        methods = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in methods:
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = fn.name if fn is top else f"{top.name}.{fn.name}"
            if fn is not top and fn.name in OPERATIONS:
                defined.append(where)
            for node in ast.walk(fn):
                callee = getattr(node, "func", None)
                callee = getattr(callee, "attr", getattr(callee, "id", None))
                if callee in ("_block", "_weights") or callee == "check_int" and any(
                        isinstance(a, ast.Name) and a.id == "k" for a in node.args):
                    checks.append(f"{where}: {callee}")
    return defined, sorted(checks)


def test_checker_catches_an_operation_and_its_checks():
    source = ("class A:\n    def apply(self, x, k):\n        k = linalg.check_int('k', k)\n"
              "        return self._apply(self._block('apply', x), k)\n"
              "class B(A):\n    def power_sum(self, w):\n        return self._weights('w', w)\n"
              "def f(k, n):\n    return check_int('n', n), _block(k)\n")
    assert operation_checks(source) == (
        ["A.apply", "B.power_sum"],
        ["A.apply: _block", "A.apply: check_int", "B.power_sum: _weights", "f: _block"])
    assert operation_checks("def power(k):\n    return k\napply = 1\n") == ([], [])


def test_only_base_transform_defines_and_checks_the_operations():
    # A subclass overrides the kernels (_power, _apply, _apply_sum and
    # _power_sum), so each argument check is written once, at one boundary.
    defined, checks = operation_checks((SRC / "base_transforms.py").read_text(encoding="utf-8"))
    assert defined == [f"BaseTransform.{name}" for name in OPERATIONS]
    assert checks == ["BaseTransform.apply: _block", "BaseTransform.apply: check_int",
                      "BaseTransform.apply_sum: _block", "BaseTransform.apply_sum: _weights",
                      "BaseTransform.power: check_int", "BaseTransform.power_sum: _weights"]


def integer_rule_reads(source: str) -> list[str]:
    """The lines that reach for an integer test of their own: ``is_integer``
    as a name, an attribute or an imported name, or ``numbers.Integral``
    (or ``Integral`` imported from ``numbers``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "is_integer":
            found.append(f"line {node.lineno}: is_integer")
        elif isinstance(node, ast.Attribute) and node.attr == "is_integer":
            found.append(f"line {node.lineno}: is_integer")
        elif (isinstance(node, ast.Attribute) and node.attr == "Integral"
              and isinstance(node.value, ast.Name) and node.value.id == "numbers"):
            found.append(f"line {node.lineno}: numbers.Integral")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name == "is_integer"
                      or (node.module == "numbers" and alias.name == "Integral")]
    return found


def test_checker_catches_an_integer_test_of_its_own():
    source = ("import numbers\nfrom numbers import Integral\nfrom .linalg import is_integer\n"
              "def f(k, t):\n    return isinstance(k, numbers.Integral) or linalg.is_integer(t)\n")
    assert integer_rule_reads(source) == [
        "line 2: Integral", "line 3: is_integer", "line 5: numbers.Integral",
        "line 5: is_integer"]
    assert integer_rule_reads("k = linalg.check_int('k', k)\nisinstance(a, numbers.Real)\n") == []


@pytest.mark.parametrize("path", NOT_LINALG, ids=[p.name for p in NOT_LINALG])
def test_only_linalg_decides_what_is_an_integer(path):
    # linalg.check_int is the one integer rule for sizes, wires, indices and exponents.
    assert integer_rule_reads(path.read_text(encoding="utf-8")) == []


def dtype_kind_reads(source: str) -> list[int]:
    """The lines that read ``<expr>.dtype.kind``: a dtype test of their own."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"]


def test_checker_catches_a_dtype_test_of_its_own():
    source = ("def f(x):\n    if x.dtype.kind not in 'biufc':\n        pass\n"
              "    return np.asarray(x).dtype.kind, x.kind, dtype.kind\n")
    assert dtype_kind_reads(source) == [2, 4]


@pytest.mark.parametrize("path", NOT_LINALG, ids=[p.name for p in NOT_LINALG])
def test_only_linalg_decides_what_is_a_numeric_array(path):
    # linalg.check_numbers is the one numeric-array rule for every array an entry point takes.
    assert dtype_kind_reads(path.read_text(encoding="utf-8")) == []


def power_op_calls(source: str) -> list[tuple[int, str]]:
    """(line, enclosing module-level definition, "" at module level) of each
    call of ``GateOp`` or ``<module>.GateOp`` that passes ``power=``."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "")
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "GateOp"
                    and any(kw.arg == "power" for kw in node.keywords)):
                found.append((node.lineno, where))
    return found


def test_checker_catches_a_power_op_made_elsewhere():
    source = ("def multiplexed_powers(t):\n    return [GateOp('unitary', (0,), power=(t, 1))]\n"
              "def f(t):\n    return circuits.GateOp('unitary', (0,), power=(t, 1))\n"
              "op = GateOp('unitary', (0,), power=(t, 2))\nGateOp('h', (0,))\n")
    assert power_op_calls(source) == [(2, "multiplexed_powers"), (4, "f"), (5, "")]
    assert power_op_calls("GateOp('unitary', (0,), matrix=m)\nf(power=(t, 1))\n") == []


def test_only_multiplexed_powers_makes_a_power_op():
    # circuits.multiplexed_powers makes every payload op of the
    # fractionalization circuits.
    found = [(path.name, where) for path in sorted(SRC.glob("*.py"))
             for _, where in power_op_calls(path.read_text(encoding="utf-8"))]
    assert found == [("circuits.py", "multiplexed_powers")]


def check_calls(source: str) -> list[tuple[int, str]]:
    """(line, enclosing definitions joined by dots, "" at module level) of
    each call of a ``check`` method."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "check"):
                found.append((child.lineno, where))
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_checker_catches_a_check_call():
    source = ("class A:\n    def f(self):\n        g(self.base.check())\n"
              "def h(t):\n    return t.check\n"
              "t.check()\n")
    assert check_calls(source) == [(3, "A.f"), (6, "")]
    assert check_calls("check(t)\nt.checked()\n") == []


def test_only_the_spec_and_a_power_op_prove_a_transform():
    # FractionalSpec proves its base when made, for every fractional entry
    # point; GateOp proves a power op's transform, which multiplexed_powers
    # takes bare.
    found = [(path.name, where) for path in sorted(SRC.glob("*.py"))
             for _, where in check_calls(path.read_text(encoding="utf-8"))]
    assert found == [("circuits.py", "GateOp._check_power"),
                     ("fractional.py", "FractionalSpec.__post_init__")]
