"""Project call graph and worker-entry-point discovery.

Built on the :mod:`replint.symbols` table: every call site whose dotted
target resolves to a function defined in the linted file set becomes an
edge ``caller -> callee``.  Call sites that cannot be pinned to a single
definition (duck-typed method calls, dynamic dispatch) are simply absent —
the project passes are deliberately under-approximate, never guessing.

The graph also records *references*: a function passed by name rather than
called (``ChunkDispatcher(ctx, n, _map_chunk, initializer=_init_pool_worker)``).
Those are how multiprocessing entry points are discovered — any function
handed to a dispatch construct (``dispatch_targets`` config) is a worker
root, and everything reachable from it runs in a worker process.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from replint.config import ReplintConfig
from replint.symbols import FunctionInfo, ModuleInfo, SymbolTable


def dotted(node: ast.expr) -> "str | None":
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``node``."""

    caller: str  # qualname of enclosing function, or "<module>" scope name
    callee: str  # qualname of the resolved target
    module: str  # module the call appears in
    path: str
    node: ast.Call


@dataclass(frozen=True)
class FunctionRef:
    """A function passed by name (not called) as an argument."""

    referrer: str
    target: str  # qualname of the referenced function
    module: str
    path: str
    call: ast.Call  # the call the reference is an argument of
    arg: ast.expr  # the argument expression itself


class _GraphVisitor(ast.NodeVisitor):
    def __init__(self, mod: ModuleInfo, table: SymbolTable, graph: "CallGraph") -> None:
        self.mod = mod
        self.table = table
        self.graph = graph
        self.scope: list[str] = []  # local_name parts of enclosing functions

    def _caller(self) -> str:
        if not self.scope:
            return f"{self.mod.name}.<module>"
        return f"{self.mod.name}.{self.scope[-1]}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.generic_visit(node)

    def _visit_func(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        # Recover this def's local dotted name from the module catalogue by
        # line number — cheap and exact, since defs were catalogued by the
        # same tree walk.
        local = next(
            (
                fn.local_name
                for fn in self.mod.functions.values()
                if fn.node is node
            ),
            node.name,
        )
        self.scope.append(local)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func)
        caller = self._caller()
        if name is not None:
            fn = self.table.resolve_function(self.mod.name, name)
            if fn is not None:
                self.graph.add_call(
                    CallSite(
                        caller=caller,
                        callee=fn.qualname,
                        module=self.mod.name,
                        path=self.mod.path,
                        node=node,
                    )
                )
        # Function references among the arguments (callable-passing style).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref_name = dotted(arg)
            if ref_name is None:
                continue
            target = self.table.resolve_function(self.mod.name, ref_name)
            if target is not None:
                self.graph.refs.append(
                    FunctionRef(
                        referrer=caller,
                        target=target.qualname,
                        module=self.mod.name,
                        path=self.mod.path,
                        call=node,
                        arg=arg,
                    )
                )
        self.generic_visit(node)


class CallGraph:
    """Edges, call sites and by-name references across the project."""

    def __init__(self) -> None:
        self.edges: dict[str, set[str]] = {}
        self.sites: list[CallSite] = []
        self.refs: list[FunctionRef] = []

    def add_call(self, site: CallSite) -> None:
        self.sites.append(site)
        self.edges.setdefault(site.caller, set()).add(site.callee)

    def callees_of(self, qualname: str) -> frozenset[str]:
        return frozenset(self.edges.get(qualname, ()))

    def reachable_from(self, roots: "set[str]") -> dict[str, "tuple[str, ...]"]:
        """BFS closure: reachable qualname -> path of qualnames from a root.

        The path (root first, target last) is what rule messages print so a
        finding two calls away from the entry point explains itself.
        """
        out: dict[str, tuple[str, ...]] = {r: (r,) for r in roots if r}
        queue = list(out)
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(self.edges.get(cur, ())):
                if nxt not in out:
                    out[nxt] = out[cur] + (nxt,)
                    queue.append(nxt)
        return out


def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph()
    for mod in table.modules.values():
        _GraphVisitor(mod, table, graph).visit(mod.tree)
    return graph


def _is_dispatch_call(site_call: ast.Call, config: ReplintConfig) -> bool:
    name = dotted(site_call.func)
    if name is None:
        return False
    return name.rsplit(".", 1)[-1] in config.dispatch_targets


def iter_dispatch_calls(
    table: SymbolTable, config: ReplintConfig
) -> Iterator["tuple[ModuleInfo, ast.Call]"]:
    """Every call to a dispatch construct (ChunkDispatcher, Pool, Process...)."""
    for mod in table.modules.values():
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) and _is_dispatch_call(node, config):
                yield mod, node


def worker_entry_points(
    table: SymbolTable, graph: CallGraph, config: ReplintConfig
) -> dict[str, str]:
    """Worker-root qualnames -> human-readable "why is this a root" note.

    A function is a worker entry point when it is (a) passed by name into a
    dispatch construct (``dispatch_targets`` config — matched on the final
    segment of the call target, so ``ChunkDispatcher(...)``, ``ctx.Pool(...)``
    and ``mp.Process(...)`` all count), or (b) named by the
    ``worker_entrypoints`` config glob list (for roots the AST cannot see,
    e.g. functions dispatched by an external framework).
    """
    import fnmatch

    roots: dict[str, str] = {}
    for ref in graph.refs:
        if _is_dispatch_call(ref.call, config):
            head = dotted(ref.call.func) or "?"
            roots.setdefault(
                ref.target,
                f"passed to {head}() at {ref.path}:{ref.call.lineno}",
            )
    for pattern in config.worker_entrypoints:
        for qual in table.functions:
            if fnmatch.fnmatch(qual, pattern):
                roots.setdefault(qual, f"named by worker_entrypoints {pattern!r}")
    return roots
