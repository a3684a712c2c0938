"""Pass 3 — lease-discipline and async-blocking lint over the serving stack.

Two families of rules, both AST-static:

**Slab-ring lease discipline** (``serve/shm.py``'s one-side-at-a-time
protocol: a slab obtained from ``try_lease`` must be returned by
``release`` on *every* path, including exception edges).  Leases legally
escape the leasing function in this codebase — ``_ProcessTransport.submit``
hands the slab into the work item and stashes it on the future, and the
``finalize``/``fail`` hooks release it — so the rules distinguish local
from escaped leases:

``CL001`` (error)
    A function assigns a ``try_lease()`` result and neither releases it
    locally nor lets it escape (call argument, return value, attribute or
    container store): the slab leaks on every path.
``CL002`` (warning)
    A function releases its lease locally, but no ``release`` call sits
    inside a ``finally`` block: an exception between lease and release
    leaks the slab.
``CL003`` (error)
    A lease escapes, but nowhere in the module is a ``release`` call
    protected by ``finally``: the downstream owner has no
    exception-safe return path.
``CL004`` (warning)
    A lease escapes and the module has exactly one ``release`` call site:
    the protocol needs both a success path *and* a failure hook
    (cf. ``finalize``'s ``finally`` plus ``fail``).

**No blocking calls in async code** (over ``serve/source.py`` /
``serve/batcher.py`` / ``serve/gateway.py``, whose deadline math and
session handling assume the event loop is never stalled):

``CL010`` (error)
    Inside an ``async def``, or inside any method of a class deriving
    from an ``asyncio`` protocol base (``connection_made`` /
    ``get_buffer`` / ``buffer_updated`` / ``eof_received`` /
    ``pause_writing`` … are called by the transport on the loop thread):
    ``time.sleep``, ``os.system``, ``subprocess.*``, ``socket.*``
    constructors, ``urllib``/``requests`` calls, bare ``open()``, or
    ``Future.result()`` — each blocks the loop; use the ``asyncio``
    equivalents or hand off to an executor.

**Unbounded pool-future waits** (over every ``serve/*.py`` module; the
supervision layer's per-unit deadlines only work when no wait can block
forever):

``CL020`` (warning)
    A ``.result()`` call with no ``timeout=`` keyword: under a hung
    worker this wait never returns and wedges the stream.  Pass a
    timeout (even a generous one) or route the wait through the
    supervised engine.  Grandfathered call sites live in the baseline.

The scoped serving sources currently lint clean on the first two
families; the compile-time lease orchestration findings (if any) live in
the baseline like every other pass's.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import Diagnostic

__all__ = [
    "default_async_targets",
    "default_lease_targets",
    "default_result_targets",
    "lint_async_paths",
    "lint_async_source",
    "lint_lease_paths",
    "lint_lease_source",
    "lint_result_timeout_paths",
    "lint_result_timeout_source",
]

#: Module-level blocking calls disallowed under ``async def`` (CL010).
BLOCKING_CALLS = frozenset({
    ("time", "sleep"), ("os", "system"), ("os", "wait"), ("os", "waitpid"),
    ("socket", "create_connection"), ("socket", "getaddrinfo"),
    ("urllib", "urlopen"), ("requests", "get"), ("requests", "post"),
    ("requests", "request"), ("shutil", "copyfile"),
})

#: Blocking attribute-call names regardless of receiver (CL010).
BLOCKING_METHODS = frozenset({"check_call", "check_output", "run_sync"})

#: ``asyncio`` protocol bases: the transport calls every callback of a
#: subclass on the event-loop thread (CL010).
PROTOCOL_BASES = frozenset({
    "BaseProtocol", "Protocol", "BufferedProtocol", "DatagramProtocol",
    "SubprocessProtocol",
})


def default_lease_targets(root: str | Path) -> list[Path]:
    """Files holding lease orchestration: the shm ring and its consumers."""

    root = Path(root)
    return [root / "serve" / "shm.py", root / "serve" / "service.py",
            root / "serve" / "gateway.py"]


def default_async_targets(root: str | Path) -> list[Path]:
    """The async deadline-sensitive files the blocking check covers."""

    root = Path(root)
    return [root / "serve" / "source.py", root / "serve" / "batcher.py",
            root / "serve" / "gateway.py"]


def default_result_targets(root: str | Path) -> list[Path]:
    """Every serving module: any of them may wait on a pool future."""

    root = Path(root)
    return sorted((root / "serve").glob("*.py"))


def lint_lease_paths(paths, rel_to: str | Path | None = None) -> list[Diagnostic]:
    """Lease-discipline rules over source files."""

    out: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(rel_to)) if rel_to else str(path)
        out.extend(lint_lease_source(path.read_text(), label))
    return out


def lint_async_paths(paths, rel_to: str | Path | None = None) -> list[Diagnostic]:
    """Async-blocking rules over source files."""

    out: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(rel_to)) if rel_to else str(path)
        out.extend(lint_async_source(path.read_text(), label))
    return out


def lint_result_timeout_paths(
    paths, rel_to: str | Path | None = None
) -> list[Diagnostic]:
    """Unbounded ``.result()`` rule over source files."""

    out: list[Diagnostic] = []
    for path in paths:
        path = Path(path)
        label = str(path.relative_to(rel_to)) if rel_to else str(path)
        out.extend(lint_result_timeout_source(path.read_text(), label))
    return out


# ----------------------------------------------------------------------
# Lease discipline
# ----------------------------------------------------------------------

def lint_lease_source(source: str, path: str) -> list[Diagnostic]:
    """Run the lease-discipline rules over one module's source."""

    tree = ast.parse(source, filename=path)
    releases_in_finally = _count_finally_releases(tree)
    release_sites = _count_release_sites(tree)

    diags: list[Diagnostic] = []
    escaped_anywhere = False
    for func, qual in _functions(tree):
        leases = _lease_assignments(func)
        if not leases:
            continue
        local_release = _releases_lease(func)
        local_finally = _count_finally_releases(func) > 0
        for name, node in leases:
            escapes = _lease_escapes(func, name)
            escaped_anywhere = escaped_anywhere or escapes
            scope = f"{path}:{qual}"
            if not local_release and not escapes:
                diags.append(Diagnostic(
                    pass_name="concurrency", rule="CL001", severity="error",
                    location=f"{path}:{node.lineno}", scope=scope,
                    message=(f"lease {name!r} is neither released in this "
                             "function nor escapes it — the slab leaks on "
                             "every path"),
                    token=name,
                ))
            elif local_release and not local_finally:
                diags.append(Diagnostic(
                    pass_name="concurrency", rule="CL002", severity="warning",
                    location=f"{path}:{node.lineno}", scope=scope,
                    message=(f"lease {name!r} is released locally but not "
                             "under a finally: an exception between lease "
                             "and release leaks the slab"),
                    token=name,
                ))
    if escaped_anywhere:
        if releases_in_finally == 0:
            diags.append(Diagnostic(
                pass_name="concurrency", rule="CL003", severity="error",
                location=path, scope=f"{path}:<module>",
                message=("leases escape their leasing function but no "
                         "release call in this module is protected by "
                         "finally — no exception-safe return path exists"),
                token="escape",
            ))
        elif release_sites < 2:
            diags.append(Diagnostic(
                pass_name="concurrency", rule="CL004", severity="warning",
                location=path, scope=f"{path}:<module>",
                message=("escaped leases with a single release site: the "
                         "protocol needs both a success path and a failure "
                         "hook"),
                token="escape",
            ))
    return diags


def _functions(tree: ast.AST):
    """Yield ``(node, qualname)`` for every function, nested included."""

    def rec(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield child, qual
                yield from rec(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield from rec(child, qual)
            else:
                yield from rec(child, prefix)

    yield from rec(tree, "")


def _is_try_lease(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "try_lease")


def _lease_assignments(func) -> list[tuple[str, ast.AST]]:
    """``name = ....try_lease()`` bindings in a function body (including
    conditional-expression forms like ``x = ring.try_lease() if ok else
    None``)."""

    out = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.IfExp):
            candidates = (value.body, value.orelse)
        else:
            candidates = (value,)
        if any(_is_try_lease(c) for c in candidates):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.append((target.id, node))
    return out


def _releases_lease(func) -> bool:
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "release"
        for n in ast.walk(func)
    )


def _count_finally_releases(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for n in ast.walk(stmt):
                    if (isinstance(n, ast.Call)
                            and isinstance(n.func, ast.Attribute)
                            and n.func.attr == "release"):
                        count += 1
    return count


def _count_release_sites(tree) -> int:
    return sum(
        1 for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "release"
    )


def _lease_escapes(func, name: str) -> bool:
    """Whether the leased ``name`` escapes the function: passed to a call
    (other than ``release``), returned, or stored into an attribute,
    subscript or container.  Comparisons and ``is None`` guards are not
    escapes."""

    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            is_release = (isinstance(node.func, ast.Attribute)
                          and node.func.attr == "release")
            if is_release:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                for n in ast.walk(arg):
                    if isinstance(n, ast.Name) and n.id == name:
                        return True
        elif isinstance(node, ast.Return) and node.value is not None:
            for n in ast.walk(node.value):
                if isinstance(n, ast.Name) and n.id == name:
                    return True
        elif isinstance(node, ast.Assign):
            stores_out = any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            )
            if stores_out:
                for n in ast.walk(node.value):
                    if isinstance(n, ast.Name) and n.id == name:
                        return True
    return False


# ----------------------------------------------------------------------
# Async blocking calls
# ----------------------------------------------------------------------

def lint_async_source(source: str, path: str) -> list[Diagnostic]:
    """Run the no-blocking-in-async rules over one module's source."""

    tree = ast.parse(source, filename=path)
    callbacks = _protocol_methods(tree)
    diags: list[Diagnostic] = []
    for func, qual in _functions(tree):
        if isinstance(func, ast.AsyncFunctionDef):
            where = "async def"
        elif func in callbacks:
            where = "an asyncio protocol method"
        else:
            continue
        for node in _walk_own_body(func):
            if not isinstance(node, ast.Call):
                continue
            token = _blocking_token(node)
            if token is not None:
                diags.append(Diagnostic(
                    pass_name="concurrency", rule="CL010", severity="error",
                    location=f"{path}:{node.lineno}",
                    scope=f"{path}:{qual}",
                    message=(f"{token} blocks the event loop inside "
                             f"{where} — use the asyncio equivalent or an "
                             "executor"),
                    token=token,
                ))
    return diags


def _protocol_methods(tree: ast.AST) -> set[ast.AST]:
    """Sync methods of classes deriving from an ``asyncio`` protocol base,
    spelled ``asyncio.BufferedProtocol`` or imported bare (a bare
    ``Protocol`` is left to ``typing``)."""

    out: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                base != "Protocol"
                and base.removeprefix("asyncio.") in PROTOCOL_BASES
                for base in map(ast.unparse, node.bases)):
            out.update(child for child in node.body
                       if isinstance(child, ast.FunctionDef))
    return out


def _walk_own_body(func):
    """Walk a function's nodes without descending into nested defs (sync
    helpers defined inside an async def run in their own scope)."""

    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _blocking_token(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in BLOCKING_CALLS:
                return f"{pair[0]}.{pair[1]}"
            if func.value.id == "subprocess":
                return f"subprocess.{func.attr}"
        if func.attr in BLOCKING_METHODS:
            return f".{func.attr}"
    return None


# ----------------------------------------------------------------------
# Unbounded pool-future waits
# ----------------------------------------------------------------------

def lint_result_timeout_source(source: str, path: str) -> list[Diagnostic]:
    """Run the unbounded-``.result()`` rule (CL020) over one module.

    Flags every ``something.result()`` call with neither a positional
    argument nor a ``timeout=`` keyword — ``Future.result``'s timeout is
    its only parameter, so any argument bounds the wait.  AST-static, so
    non-future receivers that happen to have a ``result`` method are
    flagged too; baseline such sites rather than weakening the rule.
    """

    tree = ast.parse(source, filename=path)
    diags: list[Diagnostic] = []
    for func, qual in _functions(tree):
        for node in _walk_own_body(func):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "result"):
                continue
            if node.args or any(kw.arg == "timeout" for kw in node.keywords):
                continue
            receiver = node.func.value
            token = (f"{receiver.id}.result"
                     if isinstance(receiver, ast.Name) else ".result")
            diags.append(Diagnostic(
                pass_name="concurrency", rule="CL020", severity="warning",
                location=f"{path}:{node.lineno}",
                scope=f"{path}:{qual}",
                message=(f"{token}() without a timeout: a hung worker makes "
                         "this wait block forever — pass timeout= or route "
                         "the wait through the supervised engine"),
                token=token,
            ))
    return diags
