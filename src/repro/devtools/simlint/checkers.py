"""The five simlint rules (SL001–SL005).

Each rule is deliberately heuristic: simlint trades soundness for zero
dependencies and zero configuration.  The heuristics are tuned to this
repository's idioms — dataclass stats containers named ``*Stats`` /
``*Result`` / ``*Breakdown``, a single ``SystemConfig`` in
``sim/config.py``, numpy ``default_rng`` seeding, and ``*_cycles`` /
``*_ns`` / ``*_nj`` / ``*_pj`` unit-suffixed names.

False positives are expected occasionally; that is what ``# simlint:
disable=SLxxx`` suppression comments are for.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.devtools.simlint.framework import Checker, Module

#: Dataclasses whose numeric fields are simulation counters.
_STATS_CLASS_RE = re.compile(r"(Stats|Result|Breakdown)$")

#: Annotations that mark a field as a counter / accumulated quantity.
_NUMERIC_ANNOTATIONS = {"int", "float"}

#: ``random`` module functions that consult the hidden global RNG.
_GLOBAL_RNG_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
}

_TIME_ENERGY_SUFFIXES = ("_ns", "_nj", "_pj")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _annotation_name(annotation: ast.AST) -> Optional[str]:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The identifier an expression 'ends' in: ``a.b.c`` -> ``c``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class CounterDriftChecker(Checker):
    """SL001: every stats/result/energy field must be written somewhere,
    and every ``*Stats`` counter read somewhere.

    A ``SimulationResult`` field that nothing ever assigns is a silent
    zero in every figure.  A field counts as *written* when its name
    appears as an attribute store / augmented-assign target, or as a
    keyword argument to any call (dataclass construction or ``replace``),
    anywhere outside the defining class body.

    A ``*Stats`` counter that is written but never read is bookkeeping
    every event pays for and no figure uses.  A field counts as *read*
    when, outside its own class body, its name appears as an attribute
    load or as a string constant (``getattr(stats, "name")``, a tuple of
    counter names).
    """

    rule = "SL001"
    description = "stats field declared but never written, or never read"

    def __init__(self) -> None:
        super().__init__()
        # (class name, field name) -> (path, node)
        self._fields: Dict[Tuple[str, str], Tuple[str, ast.AST]] = {}
        self._written: Set[str] = set()
        #: field name -> the classes whose bodies read it (None: no class)
        self._read: Dict[str, Set[Optional[str]]] = {}

    def collect(self, module: Module) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node) and _STATS_CLASS_RE.search(node.name):
                    self._collect_fields(module.path, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        self._written.add(target.attr)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Attribute):
                    self._written.add(node.target.attr)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        self._written.add(keyword.arg)
        self._collect_reads(module.tree, None)

    def _collect_reads(self, node: ast.AST, owner: Optional[str]) -> None:
        """Record attribute loads and string constants under the name of
        the innermost enclosing class."""
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Load):
                name = child.attr
            elif isinstance(child, ast.Constant) \
                    and isinstance(child.value, str):
                name = child.value
            if name is not None:
                self._read.setdefault(name, set()).add(owner)
            self._collect_reads(
                child,
                child.name if isinstance(child, ast.ClassDef) else owner)

    def _collect_fields(self, path: str, node: ast.ClassDef) -> None:
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            if not isinstance(statement.target, ast.Name):
                continue
            name = statement.target.id
            if name.startswith("_"):
                continue
            if _annotation_name(statement.annotation) in _NUMERIC_ANNOTATIONS:
                self._fields[(node.name, name)] = (path, statement)

    def finalize(self) -> None:
        for (cls, name), (path, node) in self._fields.items():
            if name not in self._written:
                self.report(path, node,
                            f"field '{cls}.{name}' is declared but never "
                            f"written outside its definition")
            elif cls.endswith("Stats") \
                    and not self._read.get(name, set()) - {cls}:
                self.report(path, node,
                            f"field '{cls}.{name}' is written but never "
                            f"read outside its definition")


class _SetTypes(ast.NodeVisitor):
    """Collect attribute names annotated as ``Set[...]`` / ``Dict[_, Set]``.

    Only instance attributes (``self._x: Set[int]``) and class-level field
    annotations (dataclass fields) are recorded; function-local annotated
    names are scope-tracked by the checker itself and must not leak into
    the attribute namespace.
    """

    def __init__(self) -> None:
        self.set_attrs: Set[str] = set()
        self.dict_of_set_attrs: Set[str] = set()
        self._class_depth = 0
        self._function_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def _visit_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_attribute = isinstance(node.target, ast.Attribute)
        is_class_field = (isinstance(node.target, ast.Name)
                          and self._class_depth > 0
                          and self._function_depth == 0)
        name = _terminal_name(node.target)
        if name is not None and (is_attribute or is_class_field):
            rendered = ast.dump(node.annotation)
            if self._mentions_set(node.annotation):
                if "'Dict'" in rendered or "'dict'" in rendered:
                    self.dict_of_set_attrs.add(name)
                else:
                    self.set_attrs.add(name)
        self.generic_visit(node)

    @staticmethod
    def _mentions_set(annotation: ast.AST) -> bool:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in ("Set", "set",
                                                          "FrozenSet",
                                                          "frozenset"):
                return True
        return False


class DeterminismChecker(Checker):
    """SL002: unseeded RNGs and iteration over sets.

    Simulation results must be bit-identical run to run: the figure
    pipeline diffs result dicts, and CI replays benchmarks.  Three
    hazards are flagged:

    * calls to module-level ``random.*`` functions (hidden global state),
    * ``random.Random()`` / ``default_rng()`` constructed without a seed,
    * ``for``-loops, comprehensions and ``list()/tuple()`` casts that
      iterate a ``set`` (iteration order is insertion- and hash-dependent;
      wrap in ``sorted()`` instead).
    """

    rule = "SL002"
    description = "nondeterministic RNG use or set iteration"

    def collect(self, module: Module) -> None:
        types = _SetTypes()
        types.visit(module.tree)
        imported_random_names = self._random_imports(module.tree)
        self._walk_scope(module, module.tree.body, set(),
                         types, imported_random_names)

    @staticmethod
    def _random_imports(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        return names

    # -- scope walking -------------------------------------------------

    def _walk_scope(self, module: Module, body: List[ast.stmt],
                    local_sets: Set[str], types: _SetTypes,
                    random_names: Set[str]) -> None:
        for statement in body:
            self._visit_statement(module, statement, local_sets, types,
                                  random_names)

    def _visit_statement(self, module: Module, statement: ast.stmt,
                         local_sets: Set[str], types: _SetTypes,
                         random_names: Set[str]) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Fresh local-variable scope; set-typed attrs stay visible.
            self._walk_scope(module, statement.body, set(), types,
                             random_names)
            return
        if isinstance(statement, ast.ClassDef):
            self._walk_scope(module, statement.body, set(), types,
                             random_names)
            return
        if isinstance(statement, ast.Assign):
            is_set = self._is_set_expr(statement.value, local_sets, types)
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    if is_set:
                        local_sets.add(target.id)
                    else:
                        local_sets.discard(target.id)
        if isinstance(statement, ast.AnnAssign) and \
                isinstance(statement.target, ast.Name):
            is_set = ((statement.value is not None
                       and self._is_set_expr(statement.value, local_sets,
                                             types))
                      or (_SetTypes._mentions_set(statement.annotation)
                          and "'Dict'" not in ast.dump(statement.annotation)))
            if is_set:
                local_sets.add(statement.target.id)
            else:
                local_sets.discard(statement.target.id)
        if isinstance(statement, ast.For):
            self._check_iteration(module, statement.iter, local_sets, types)
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.stmt):
                continue  # handled via the explicit statement walk below
            self._visit_expression(module, child, local_sets, types,
                                   random_names)
        # Recurse into nested statement bodies (if/for/while/with/try).
        for field_name in ("body", "orelse", "finalbody"):
            nested = getattr(statement, field_name, None)
            if nested:
                self._walk_scope(module, nested, local_sets, types,
                                 random_names)
        for handler in getattr(statement, "handlers", []) or []:
            self._walk_scope(module, handler.body, local_sets, types,
                             random_names)

    def _visit_expression(self, module: Module, node: ast.AST,
                          local_sets: Set[str], types: _SetTypes,
                          random_names: Set[str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._check_call(module, sub, local_sets, types, random_names)
            elif isinstance(sub, (ast.GeneratorExp, ast.ListComp,
                                  ast.SetComp, ast.DictComp)):
                for generator in sub.generators:
                    self._check_iteration(module, generator.iter,
                                          local_sets, types)

    # -- individual checks ---------------------------------------------

    def _check_call(self, module: Module, node: ast.Call,
                    local_sets: Set[str], types: _SetTypes,
                    random_names: Set[str]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id == "random":
            if func.attr == "Random" and not node.args and not node.keywords:
                self.report(module.path, node,
                            "unseeded random.Random(); pass an explicit seed")
            elif func.attr in _GLOBAL_RNG_FUNCS:
                self.report(module.path, node,
                            f"random.{func.attr}() uses the hidden global "
                            f"RNG; thread a seeded generator instead")
        if isinstance(func, ast.Name) and func.id == "Random" and \
                "Random" in random_names and not node.args and not node.keywords:
            self.report(module.path, node,
                        "unseeded Random(); pass an explicit seed")
        if isinstance(func, ast.Attribute) and func.attr == "default_rng" and \
                not node.args and not node.keywords:
            self.report(module.path, node,
                        "unseeded default_rng(); pass an explicit seed")
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") and \
                len(node.args) == 1:
            if self._is_set_expr(node.args[0], local_sets, types):
                self.report(module.path, node,
                            f"{func.id}() over a set has hash-dependent "
                            f"order; use sorted() for determinism")

    def _check_iteration(self, module: Module, iter_node: ast.AST,
                         local_sets: Set[str], types: _SetTypes) -> None:
        if self._is_set_expr(iter_node, local_sets, types):
            self.report(module.path, iter_node,
                        "iteration over a set has hash-dependent order; "
                        "use sorted() for determinism")

    def _is_set_expr(self, node: ast.AST, local_sets: Set[str],
                     types: _SetTypes) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute):
            return node.attr in types.set_attrs
        if isinstance(node, ast.Subscript):
            name = _terminal_name(node.value)
            return name in types.dict_of_set_attrs if name else False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left, local_sets, types)
                    or self._is_set_expr(node.right, local_sets, types))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Name) and func.id in ("sorted", "list",
                                                          "tuple", "len",
                                                          "min", "max", "sum"):
                return False
            if isinstance(func, ast.Attribute):
                if func.attr in ("union", "intersection", "difference",
                                 "symmetric_difference"):
                    return self._is_set_expr(func.value, local_sets, types)
                if func.attr == "copy":
                    return self._is_set_expr(func.value, local_sets, types)
                if func.attr == "get":
                    name = _terminal_name(func.value)
                    if name in types.dict_of_set_attrs:
                        return True
                if func.attr in ("keys", "values") :
                    name = _terminal_name(func.value)
                    return name in types.dict_of_set_attrs and \
                        func.attr == "values"
        return False


class ConfigHygieneChecker(Checker):
    """SL003: every ``sim/config.py`` dataclass field must be read somewhere.

    A config knob nothing reads means an experiment sweep over it sweeps
    nothing — results labelled with a parameter that had no effect.  Also
    flags construction of a config class with an unknown keyword (a typo'd
    field silently becomes a ``TypeError`` only at runtime).
    """

    rule = "SL003"
    description = "config field never read, or unknown field in construction"

    def __init__(self) -> None:
        super().__init__()
        # class name -> {field name -> (path, node)}
        self._config_fields: Dict[str, Dict[str, Tuple[str, ast.AST]]] = {}
        self._reads: Set[str] = set()
        # deferred construction sites: (path, node, class name, keyword)
        self._constructions: List[Tuple[str, ast.Call, str]] = []

    def collect(self, module: Module) -> None:
        is_config_module = module.path.replace("\\", "/").endswith(
            "sim/config.py")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and is_config_module and \
                    _is_dataclass(node):
                fields: Dict[str, Tuple[str, ast.AST]] = {}
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign) and \
                            isinstance(statement.target, ast.Name) and \
                            not statement.target.id.startswith("_"):
                        fields[statement.target.id] = (module.path, statement)
                self._config_fields[node.name] = fields
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                self._reads.add(node.attr)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name):
                self._constructions.append((module.path, node, node.func.id))

    def finalize(self) -> None:
        for cls, fields in self._config_fields.items():
            for name, (path, node) in fields.items():
                if name not in self._reads:
                    self.report(path, node,
                                f"config field '{cls}.{name}' is never read; "
                                f"wire it up or delete it")
        for path, node, cls in self._constructions:
            fields = self._config_fields.get(cls)
            if fields is None:
                continue
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in fields:
                    self.report(path, keyword.value,
                                f"unknown field '{keyword.arg}' in "
                                f"{cls}(...) construction")


class UnitMixingChecker(Checker):
    """SL004: ``*_cycles`` values must not mix additively with ``*_ns``/``*_pj``.

    Cycles are dimensionless counts; nanoseconds and picojoules are not.
    Adding or subtracting across that boundary without a conversion call
    (multiplication by a period/energy-per-event is fine) is a unit bug.
    """

    rule = "SL004"
    description = "cycles mixed additively with ns/nj/pj quantities"

    def collect(self, module: Module) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and \
                    isinstance(node.op, (ast.Add, ast.Sub)):
                left = _terminal_name(node.left)
                right = _terminal_name(node.right)
                if left and right and self._mixed(left, right):
                    self.report(module.path, node,
                                f"'{left}' and '{right}' mix cycle counts "
                                f"with physical units; convert explicitly")
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = _terminal_name(node.targets[0])
                value = _terminal_name(node.value)
                if target and value and \
                        isinstance(node.value, (ast.Name, ast.Attribute)) and \
                        self._mixed(target, value):
                    self.report(module.path, node,
                                f"assigning '{value}' to '{target}' crosses "
                                f"the cycles/physical-unit boundary without "
                                f"a conversion")

    @staticmethod
    def _mixed(one: str, other: str) -> bool:
        def is_cycles(name: str) -> bool:
            return name.endswith("_cycles") or name == "cycles"

        def is_physical(name: str) -> bool:
            return name.endswith(_TIME_ENERGY_SUFFIXES)

        return (is_cycles(one) and is_physical(other)) or \
            (is_physical(one) and is_cycles(other))


class SilentExceptionChecker(Checker):
    """SL005: bare ``except`` and ``except Exception: pass`` swallow bugs.

    A simulator that silently absorbs an unexpected exception keeps
    producing numbers — wrong ones.  Handlers must either name the
    expected exception type or do something with what they caught.
    """

    rule = "SL005"
    description = "bare except or silent broad exception handler"

    _BROAD = ("Exception", "BaseException")

    def collect(self, module: Module) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                self.report(module.path, node,
                            "bare 'except:' catches everything, including "
                            "KeyboardInterrupt; name the expected exception")
                continue
            type_name = _terminal_name(node.type)
            if type_name in self._BROAD and self._is_silent(node.body):
                self.report(module.path, node,
                            f"'except {type_name}' with an empty body "
                            f"silently swallows errors; narrow the type or "
                            f"handle the exception")

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue)):
                continue
            if isinstance(statement, ast.Expr) and \
                    isinstance(statement.value, ast.Constant):
                continue  # docstring or Ellipsis
            return False
        return True


def default_checkers() -> List[Checker]:
    """The full shipped rule set, freshly instantiated."""
    return [CounterDriftChecker(), DeterminismChecker(),
            ConfigHygieneChecker(), UnitMixingChecker(),
            SilentExceptionChecker()]
