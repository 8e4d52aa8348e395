"""Project-wide call graph for the interprocedural rules.

The graph is built once per lint run from every parsed module and feeds
RT003 (transitive lock-held-blocking).  Resolution is deliberately
conservative — an unresolvable call simply produces no edge — and covers
the call shapes the runtime actually uses:

* ``f(...)`` — a module-level function of the same module, or a
  ``from mod import f`` import resolved to its defining module;
* ``self.m(...)`` — a method of the enclosing class or (project-local)
  base classes, walked in MRO order;
* ``self.attr.m(...)`` / ``param.m(...)`` — attribute/parameter types
  inferred from ``__init__`` assignments, annotations, and direct
  constructor calls; when the resolved method is defined on a class with
  project-local subclasses that override it, *all* overrides become
  edges (virtual dispatch is a union, not a guess);
* ``mod.f(...)`` — ``import mod`` / ``from pkg import mod`` aliases;
* ``ClassName(...)`` — an edge to ``ClassName.__init__``.

Qualified names are ``<dotted module>:<Class>.<method>`` (or
``<dotted module>:<function>``).  Module dotted names are derived from
the file path: everything from the last path segment that starts a run
of valid identifiers, with ``__init__`` dropped — so ``src/repro/runtime/
client.py`` indexes as ``src.repro.runtime.client`` and an absolute
import of ``repro.runtime.client`` resolves by *dotted-suffix* match.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .visitor import ModuleContext, dotted_name

__all__ = ["CallGraph", "FunctionInfo", "ClassInfo", "module_name_for_path", "iter_scope"]


def iter_scope(func_node: ast.AST):
    """Walk a function body WITHOUT descending into nested ``def``/``lambda``.

    A nested function's body runs when *it* is called (often on another
    thread — ``threading.Thread(target=_push)``), not where it is
    defined, so its calls and blocking operations must not be attributed
    to the enclosing function.
    """
    stack = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def module_name_for_path(path: str) -> str:
    """Dotted module name for a posix file path (best-effort, stable)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Keep the longest trailing run of identifier-shaped segments.
    tail: list[str] = []
    for seg in reversed(parts):
        if seg.isidentifier():
            tail.append(seg)
        else:
            break
    tail.reverse()
    return ".".join(tail) if tail else (parts[-1] if parts else path)


def annotation_class_names(node: Optional[ast.expr]) -> list[str]:
    """Candidate class names in an annotation: ``T``, ``"T"``,
    ``Optional[T]``, ``T | None``, ``a.b.T`` (terminal name kept whole)."""
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    names: list[str] = []
    if isinstance(node, (ast.Name, ast.Attribute)):
        dn = dotted_name(node)
        if dn and dn not in ("None",):
            names.append(dn)
    elif isinstance(node, ast.Subscript):  # Optional[T], list[T], dict[K, V]
        inner = node.slice
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        for e in elts:
            names.extend(annotation_class_names(e))
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # T | None
        names.extend(annotation_class_names(node.left))
        names.extend(annotation_class_names(node.right))
    return names


@dataclass
class FunctionInfo:
    """One function/method definition in the project."""

    qualname: str  # module:Class.method or module:func
    module: str  # dotted module name
    path: str  # source file path (as linted)
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    cls: Optional[str] = None  # "module:Class" of the owner, if a method

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]

    @property
    def display(self) -> str:
        tail = self.qualname.split(":", 1)[1]
        return tail


@dataclass
class ClassInfo:
    """One class definition: methods, base names, inferred attribute types."""

    qualname: str  # "module:Class"
    module: str
    path: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: tuple[str, ...] = ()
    #: attribute name → candidate class qualnames (resolved lazily)
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved call edge out of a function."""

    caller: str  # qualname
    callees: tuple[str, ...]  # resolved candidate qualnames
    line: int
    call_text: str  # e.g. "self.policy.on_node_failed"
    node: ast.Call


class _ModuleIndex:
    """Per-module symbol table: imports, top-level functions, classes."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.name = module_name_for_path(ctx.path)
        self.package = self.name.rsplit(".", 1)[0] if "." in self.name else ""
        #: local alias → absolute dotted target (module or module.symbol)
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._scan()

    def _resolve_relative(self, level: int, module: Optional[str]) -> str:
        base = self.name.split(".")
        # level=1: current package; each extra level climbs one package
        base = base[: max(0, len(base) - level)]
        if module:
            base = base + module.split(".")
        return ".".join(base)

    def _scan(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                mod = (
                    self._resolve_relative(node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{mod}.{alias.name}" if mod else alias.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qn = f"{self.name}:{node.name}"
                self.functions[node.name] = FunctionInfo(
                    qualname=qn, module=self.name, path=self.ctx.path, node=node
                )
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)

    def _scan_class(self, node: ast.ClassDef) -> None:
        cq = f"{self.name}:{node.name}"
        info = ClassInfo(
            qualname=cq,
            module=self.name,
            path=self.ctx.path,
            node=node,
            base_names=tuple(n for n in (dotted_name(b) for b in node.bases) if n),
        )
        attr_ann: dict[str, list[str]] = {}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qn = f"{cq}.{item.name}"
                info.methods[item.name] = FunctionInfo(
                    qualname=qn, module=self.name, path=self.ctx.path, node=item, cls=cq
                )
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                attr_ann.setdefault(item.target.id, []).extend(
                    annotation_class_names(item.annotation)
                )
        init = info.methods.get("__init__")
        if init is not None:
            self._scan_init_attrs(init.node, attr_ann)
        info.attr_types = {k: tuple(v) for k, v in attr_ann.items() if v}
        self.classes[node.name] = info

    def _scan_init_attrs(self, init: ast.AST, attr_ann: dict[str, list[str]]) -> None:
        """Infer ``self.x`` types from ``__init__``: annotated parameters
        assigned straight through, and direct constructor calls."""
        args = init.args  # type: ignore[attr-defined]
        param_ann: dict[str, list[str]] = {}
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = annotation_class_names(a.annotation)
            if names:
                param_ann[a.arg] = names
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            tgt = stmt.targets[0]
            if not (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                continue
            value = stmt.value
            # Unwrap `x if cond else Y(...)` conservatively: union both arms.
            candidates: list[ast.expr] = (
                [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            )
            for v in candidates:
                if isinstance(v, ast.Name) and v.id in param_ann:
                    attr_ann.setdefault(tgt.attr, []).extend(param_ann[v.id])
                elif isinstance(v, ast.Call):
                    cn = dotted_name(v.func)
                    if cn and cn.split(".")[-1][:1].isupper():
                        attr_ann.setdefault(tgt.attr, []).append(cn)


class CallGraph:
    """The project call graph plus the symbol index it was built from."""

    def __init__(self, contexts: Iterable[ModuleContext]):
        self.modules: dict[str, _ModuleIndex] = {}
        for ctx in contexts:
            idx = _ModuleIndex(ctx)
            self.modules[idx.name] = idx
        #: qualname → FunctionInfo for every function/method in the project
        self.functions: dict[str, FunctionInfo] = {}
        #: "module:Class" → ClassInfo
        self.classes: dict[str, ClassInfo] = {}
        for idx in self.modules.values():
            self.functions.update({f.qualname: f for f in idx.functions.values()})
            for cinfo in idx.classes.values():
                self.classes[cinfo.qualname] = cinfo
                self.functions.update(
                    {m.qualname: m for m in cinfo.methods.values()}
                )
        self._subclasses = self._build_subclass_map()
        #: caller qualname → call sites (resolved edges)
        self.calls: dict[str, list[CallSite]] = {}
        for fi in self.functions.values():
            self.calls[fi.qualname] = list(self._resolve_function_calls(fi))

    # -- module / class resolution --------------------------------------------------
    def resolve_module(self, dotted: str) -> Optional[_ModuleIndex]:
        """Match an absolute dotted module name by suffix (``repro.runtime
        .client`` finds ``src.repro.runtime.client``)."""
        if dotted in self.modules:
            return self.modules[dotted]
        for name, idx in self.modules.items():
            if name.endswith("." + dotted):
                return idx
        return None

    def resolve_class(self, name: str, scope: _ModuleIndex) -> Optional[ClassInfo]:
        """A class named ``name`` (possibly dotted) visible from ``scope``."""
        if "." not in name:
            if name in scope.classes:
                return scope.classes[name]
            target = scope.imports.get(name)
            if target:
                return self._class_by_abs(target)
            return None
        head, _, rest = name.partition(".")
        target = scope.imports.get(head)
        if target:
            return self._class_by_abs(f"{target}.{rest}")
        return None

    def _class_by_abs(self, dotted: str) -> Optional[ClassInfo]:
        if "." not in dotted:
            return None
        mod, cls = dotted.rsplit(".", 1)
        idx = self.resolve_module(mod)
        if idx is not None and cls in idx.classes:
            return idx.classes[cls]
        return None

    def mro(self, cinfo: ClassInfo) -> list[ClassInfo]:
        """Project-local linearisation: the class, then bases depth-first."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [cinfo]
        while stack:
            c = stack.pop(0)
            if c.qualname in seen:
                continue
            seen.add(c.qualname)
            out.append(c)
            scope = self.modules.get(c.module)
            if scope is None:
                continue
            for bname in c.base_names:
                b = self.resolve_class(bname, scope)
                if b is not None:
                    stack.append(b)
        return out

    def _build_subclass_map(self) -> dict[str, list[ClassInfo]]:
        sub: dict[str, list[ClassInfo]] = {}
        for cinfo in self.classes.values():
            scope = self.modules.get(cinfo.module)
            if scope is None:
                continue
            for bname in cinfo.base_names:
                b = self.resolve_class(bname, scope)
                if b is not None:
                    sub.setdefault(b.qualname, []).append(cinfo)
        return sub

    def subclasses(self, qualname: str) -> list[ClassInfo]:
        """Transitive project-local subclasses of ``module:Class``."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = list(self._subclasses.get(qualname, ()))
        while stack:
            c = stack.pop()
            if c.qualname in seen:
                continue
            seen.add(c.qualname)
            out.append(c)
            stack.extend(self._subclasses.get(c.qualname, ()))
        return out

    def lookup_method(self, cinfo: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for c in self.mro(cinfo):
            if name in c.methods:
                return c.methods[name]
        return None

    def _method_candidates(self, cinfo: ClassInfo, name: str) -> list[FunctionInfo]:
        """MRO hit plus every project-local subclass override (virtual
        dispatch as a union)."""
        out: list[FunctionInfo] = []
        hit = self.lookup_method(cinfo, name)
        if hit is not None:
            out.append(hit)
        for sub in self.subclasses(cinfo.qualname):
            if name in sub.methods:
                out.append(sub.methods[name])
        return out

    # -- call resolution ----------------------------------------------------------
    def _local_var_types(self, fi: FunctionInfo) -> dict[str, list[str]]:
        """Local name → candidate class names: parameter annotations,
        ``x: T = ...``, and ``x = ClassName(...)``."""
        types: dict[str, list[str]] = {}
        node = fi.node
        args = node.args  # type: ignore[attr-defined]
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = annotation_class_names(a.annotation)
            if names:
                types[a.arg] = names
        for stmt in iter_scope(node):
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = annotation_class_names(stmt.annotation)
                if names:
                    types.setdefault(stmt.target.id, []).extend(names)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                tgt = stmt.targets[0]
                if isinstance(tgt, ast.Name) and isinstance(stmt.value, ast.Call):
                    cn = dotted_name(stmt.value.func)
                    if cn and cn.split(".")[-1][:1].isupper():
                        types.setdefault(tgt.id, []).append(cn)
        return types

    def _resolve_function_calls(self, fi: FunctionInfo):
        scope = self.modules.get(fi.module)
        if scope is None:
            return
        own_class = self.classes.get(fi.cls) if fi.cls else None
        var_types = self._local_var_types(fi)
        # iter_scope, not ast.walk: a call inside a nested def/lambda runs
        # when that closure is invoked (often on another thread), so it is
        # not an edge out of *this* function
        for call in iter_scope(fi.node):
            if not isinstance(call, ast.Call):
                continue
            name = dotted_name(call.func)
            if not name:
                continue
            callees = self.resolve_name(
                name, scope, own_class=own_class, var_types=var_types
            )
            if callees:
                yield CallSite(
                    caller=fi.qualname,
                    callees=tuple(dict.fromkeys(c.qualname for c in callees)),
                    line=call.lineno,
                    call_text=name,
                    node=call,
                )

    def resolve_name(
        self,
        name: str,
        scope: _ModuleIndex,
        own_class: Optional[ClassInfo] = None,
        var_types: Optional[dict[str, list[str]]] = None,
    ) -> list[FunctionInfo]:
        """Resolve a dotted callable name to project functions (may be [])."""
        parts = name.split(".")
        var_types = var_types or {}

        # self.m() / self.attr.m()
        if parts[0] == "self" and own_class is not None:
            if len(parts) == 2:
                return self._method_candidates(own_class, parts[1])
            if len(parts) == 3:
                attr, meth = parts[1], parts[2]
                out: list[FunctionInfo] = []
                for tname in own_class.attr_types.get(attr, ()):
                    cinfo = self.resolve_class(tname, scope) or self._class_by_abs(tname)
                    if cinfo is not None:
                        out.extend(self._method_candidates(cinfo, meth))
                return out
            return []

        # var.m() where var has an inferred type
        if len(parts) == 2 and parts[0] in var_types:
            out = []
            for tname in var_types[parts[0]]:
                cinfo = self.resolve_class(tname, scope) or self._class_by_abs(tname)
                if cinfo is not None:
                    out.extend(self._method_candidates(cinfo, parts[1]))
            return out

        # f() — local function, imported function, or constructor
        if len(parts) == 1:
            if name in scope.functions:
                return [scope.functions[name]]
            if name in scope.classes:
                init = self.lookup_method(scope.classes[name], "__init__")
                return [init] if init else []
            target = scope.imports.get(name)
            if target:
                return self._resolve_absolute(target)
            return []

        # mod.f() / pkg.mod.f() through an import alias
        head = parts[0]
        target = scope.imports.get(head)
        if target:
            return self._resolve_absolute(".".join([target, *parts[1:]]))
        return []

    def _resolve_absolute(self, dotted: str) -> list[FunctionInfo]:
        """``pkg.mod.f`` or ``pkg.mod.Class`` → project functions."""
        if "." in dotted:
            mod, sym = dotted.rsplit(".", 1)
            idx = self.resolve_module(mod)
            if idx is not None:
                if sym in idx.functions:
                    return [idx.functions[sym]]
                if sym in idx.classes:
                    init = self.lookup_method(idx.classes[sym], "__init__")
                    return [init] if init else []
        return []

    # -- views ---------------------------------------------------------------------
    @property
    def contexts(self) -> list[ModuleContext]:
        return [idx.ctx for idx in self.modules.values()]

    def context_for(self, path: str) -> Optional[ModuleContext]:
        for idx in self.modules.values():
            if idx.ctx.path == path:
                return idx.ctx
        return None

    def callees_of(self, qualname: str) -> list[CallSite]:
        return self.calls.get(qualname, [])

    def function_for_node(self, path: str, node: ast.AST) -> Optional[FunctionInfo]:
        for fi in self.functions.values():
            if fi.path == path and fi.node is node:
                return fi
        return None

    def functions_in(self, path: str) -> list[FunctionInfo]:
        return [fi for fi in self.functions.values() if fi.path == path]
