"""Pass 2 — hot-path allocation lint over the compiled/serving modules.

The fast-path contract of :mod:`repro.core.fast_plan` and the serving
stack is *steady-state allocation freedom*: every per-wedge buffer comes
from a :class:`~repro.core.fast_plan.Workspace`, ufuncs write through
``out=``, and nothing builds Python lists per stage-execution iteration.
This pass enforces that with a custom AST walk: it flags, **only inside
loops** (``for``/``while`` bodies and comprehensions — the lexical shape
of every stage-execution and batch loop), the constructs that allocate:

``HP001``
    Array-producing ``np.*`` constructor calls (``np.empty``,
    ``np.zeros``, ``np.asarray``, ``np.concatenate`` …).
``HP002``
    Array-returning ``np.*`` ufunc-style calls without an ``out=``
    argument (``np.add``, ``np.clip``, ``np.dot`` … allocate their result
    when ``out`` is omitted).
``HP003``
    Allocating array methods — ``.copy()``, ``.astype()``, ``.flatten()``,
    ``.tolist()``.
``HP004``
    Python list building — ``.append(...)`` calls and list
    comprehensions.
``HP005``
    Workspace slab acquisition (``self._ws.get(...)``) inside a nested
    function — the lexical shape of the panel closures.  A panel closure
    also runs in the forked panel slot processes, which share the
    workspace's buffers but may not allocate
    (:class:`~repro.core.fast_plan.Workspace`): every per-slot slab is
    acquired before the panels run, so a ``_ws.get`` inside a closure is
    a per-panel lookup at best and, in a slot, an allocation no other
    process can see.  Unlike HP001–HP004 this rule applies at any loop
    depth (the closure body is the slot's whole run).

Compile-time loops (plan construction, calibration probes) trip these
rules too; those findings are *grandfathered* in the checked-in baseline
(``tools/analysis_baseline.json``) and ratchet down rather than block.
A finding can also be acknowledged in place with a trailing
``# lint: allow-alloc`` comment (used where an allocation is deliberate,
e.g. a cold error path).

Fingerprints are built from ``(rule, module:function, call token,
occurrence)`` — stable under reformatting and unrelated edits.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import Diagnostic

__all__ = ["default_targets", "lint_paths", "lint_source"]

#: ``np.*`` calls that always allocate a fresh array (HP001).
ALLOCATORS = frozenset({
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like",
    "ones_like", "full_like", "array", "asarray", "ascontiguousarray",
    "asfortranarray", "copy", "concatenate", "stack", "vstack", "hstack",
    "pad", "repeat", "tile", "arange", "linspace", "frombuffer",
})

#: ``np.*`` calls that allocate their result unless ``out=`` is passed
#: (HP002).  ``np.copyto`` writes in place by construction and is exempt.
OUT_CAPABLE = frozenset({
    "add", "subtract", "multiply", "divide", "true_divide", "negative",
    "abs", "absolute", "exp", "log", "log2", "sqrt", "clip", "greater",
    "greater_equal", "less", "less_equal", "equal", "not_equal",
    "maximum", "minimum", "dot", "matmul", "mean", "sum", "nanmax",
    "nanmin", "where",
})

#: Allocating array methods (HP003).
ALLOC_METHODS = frozenset({"copy", "astype", "flatten", "tolist"})

#: In-line acknowledgement comment.
SUPPRESS = "lint: allow-alloc"


def default_targets(root: str | Path) -> list[Path]:
    """The scoped hot-path files: ``core/fast_*.py``, ``serve/*.py`` and
    the adaptive rate tier's serving wrapper."""

    root = Path(root)
    files = sorted((root / "core").glob("fast_*.py"))
    files += sorted(p for p in (root / "serve").glob("*.py")
                    if p.name != "__init__.py")
    tier = root / "rate" / "tier.py"
    if tier.exists():
        files.append(tier)
    return files


def lint_paths(paths, rel_to: str | Path | None = None) -> list[Diagnostic]:
    """Run the lint over source files; returns all findings."""

    out: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(rel_to)) if rel_to else str(path)
        out.extend(lint_source(path.read_text(), label))
    return out


def lint_source(source: str, path: str) -> list[Diagnostic]:
    """Run the lint over one module's source text (``path`` labels it)."""

    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    visitor = _HotPathVisitor(path, lines)
    visitor.visit(tree)
    return visitor.diags


class _HotPathVisitor(ast.NodeVisitor):
    """Tracks lexical function/loop nesting; emits findings inside loops."""

    def __init__(self, path: str, lines: list[str]) -> None:
        self.path = path
        self.lines = lines
        self.diags: list[Diagnostic] = []
        self._funcs: list[str] = []
        self._loop_depth = 0
        self._def_depth = 0  # function-def nesting; ≥2 means a closure

    # -- helpers --------------------------------------------------------
    def _scope(self) -> str:
        qual = ".".join(self._funcs) if self._funcs else "<module>"
        return f"{self.path}:{qual}"

    def _suppressed(self, node: ast.AST) -> bool:
        line = self.lines[node.lineno - 1] if node.lineno <= len(self.lines) else ""
        return SUPPRESS in line

    def _emit(self, rule: str, node: ast.AST, message: str,
              token: str) -> None:
        if self._suppressed(node):
            return
        self.diags.append(Diagnostic(
            pass_name="hotpath", rule=rule, severity="warning",
            location=f"{self.path}:{node.lineno}", scope=self._scope(),
            message=message, token=token,
        ))

    # -- nesting --------------------------------------------------------
    def _visit_func(self, node) -> None:
        self._funcs.append(node.name)
        self._def_depth += 1
        outer_loops = self._loop_depth
        self._loop_depth = 0  # a nested def resets the loop context
        self.generic_visit(node)
        self._loop_depth = outer_loops
        self._def_depth -= 1
        self._funcs.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._funcs.append(node.name)
        self.generic_visit(node)
        self._funcs.pop()

    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def _visit_comp(self, node) -> None:
        # The comprehension *is* a loop: its element expression runs per
        # iteration.  A ListComp additionally builds a list (HP004).
        if isinstance(node, ast.ListComp) and self._loop_depth > 0:
            self._emit("HP004", node,
                       "list comprehension inside a hot loop builds a "
                       "fresh list per iteration", token="listcomp")
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- findings -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func0 = node.func
        if (self._def_depth >= 2
                and isinstance(func0, ast.Attribute)
                and func0.attr == "get"
                and isinstance(func0.value, ast.Attribute)
                and func0.value.attr == "_ws"):
            self._emit("HP005", node,
                       "_ws.get() inside a nested function — panel "
                       "closures also run in the forked slot processes, "
                       "which may not allocate, so workspace slabs must "
                       "be acquired before the panels run",
                       token="_ws.get")
        if self._loop_depth > 0:
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")):
                name = func.attr
                token = f"np.{name}"
                if name in ALLOCATORS:
                    self._emit("HP001", node,
                               f"{token}() allocates a fresh array inside "
                               "a loop — plan a Workspace buffer instead",
                               token=token)
                elif name in OUT_CAPABLE and not any(
                        kw.arg == "out" for kw in node.keywords):
                    self._emit("HP002", node,
                               f"{token}() without out= allocates its "
                               "result inside a loop", token=token)
            elif isinstance(func, ast.Attribute):
                if func.attr in ALLOC_METHODS:
                    self._emit("HP003", node,
                               f".{func.attr}() allocates inside a loop",
                               token=f".{func.attr}")
                elif func.attr == "append":
                    self._emit("HP004", node,
                               ".append() builds a list inside a loop",
                               token=".append")
        self.generic_visit(node)
