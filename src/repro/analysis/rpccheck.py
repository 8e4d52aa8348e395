"""RPC000–RPC004 — client/server protocol conformance.

The runtime's wire contract lives in two places that evolve
independently: senders (``Message.request(op, **fields)`` plus the
response fields the caller then reads) and handlers (``msg.op ==
OP_X`` dispatch branches plus the ``ok_response``/``error_response``
constructions they return).  HVAC has the same split with frozen
dataclasses (``ReadRequest``/``ReadResponse``) over the simulated RPC
fabric.  This checker extracts both sides and cross-checks them:

==========  ====================================================================
RPC000      an op that is a string literal, or an ``OP_*`` name that does not
            exist in the protocol constants (string-literal drift); also any
            malformed ``BIN_OPS`` binary-table entry — a string-literal or
            unknown key, a non-integer wire code, a code outside the 8-bit
            header field, or two ops sharing one code
RPC001      an op sent by a client but matched by no handler branch; also a
            ``BIN_OPS`` entry with no handler branch (the binary codec would
            decode frames nothing can dispatch)
RPC002      a handler branch for an op no client ever sends; also a
            ``BIN_OPS`` entry no client sends (dead binary wire surface)
RPC003      a request field read by a handler but supplied by no sender of that
            op; for HVAC, a request attribute/constructor field that does not
            exist on the dataclass
RPC004      a response field the client consumes but the server does not set:
            a *strict* read (``resp.header["f"]``) must be set on **every** ok
            reply path of that op; a *soft* read (``.get("f")``) must be set on
            at least one reply path; for HVAC, a response attribute that does
            not exist on the dataclass
==========  ====================================================================

Extraction facts the checks rely on (kept in sync with
``repro.runtime.protocol``): ``ok_response`` implies header field
``status``; ``error_response`` implies ``status`` and ``reason``; a
``**splat`` in a reply construction is a wildcard that satisfies any
field on that path, and ``dict(resp.header)`` on the client side is a
wildcard consumption that asserts nothing.  Response reads are
attributed to every op the *same function* sends — a function
multiplexing several ops over one response variable should be split (or
suppressed with a justification).

Scope gating keeps fixtures honest: senders/handlers are only extracted
from modules under ``repro/runtime`` and ``repro/hvac``, and the
sent-vs-handled checks (RPC001/RPC002) each require *both* sides to be
present in the linted set, so linting a lone client module does not
declare every op unhandled.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionInfo, _ModuleIndex
from .findings import Finding
from .visitor import ProjectRule, dotted_name

_OK_IMPLICIT = frozenset({"status"})
_ERROR_IMPLICIT = frozenset({"status", "reason"})


# --------------------------------------------------------------------------- facts
@dataclass
class RequestSite:
    op: Optional[str]  # resolved op value, None when dynamic
    op_text: str
    fields: Set[str]
    wildcard: bool
    path: str
    line: int
    func: str


@dataclass
class ReplySite:
    kind: str  # "ok" | "error"
    fields: Set[str]
    wildcard: bool
    path: str
    line: int


@dataclass
class HandlerBranch:
    op: Optional[str]
    op_text: str
    path: str
    line: int
    #: (field, strict, line) request-header reads inside the branch
    reads: List[Tuple[str, bool, int]] = dc_field(default_factory=list)
    replies: List[ReplySite] = dc_field(default_factory=list)


@dataclass
class Consumption:
    """Response-header reads of one sender function."""

    func: str
    ops: Set[str]
    #: (field, strict, line)
    reads: List[Tuple[str, bool, int]]
    wildcard: bool
    path: str


def _str_const(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _terminal(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


class _OpResolver:
    """OP_* constants of the stack plus RPC000 drift findings."""

    def __init__(self, modules: List[_ModuleIndex]):
        self.constants: Dict[str, str] = {}
        for idx in modules:
            for node in idx.ctx.tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    tgt = node.targets[0]
                    val = _str_const(node.value)
                    if (
                        isinstance(tgt, ast.Name)
                        and tgt.id.startswith("OP_")
                        and val is not None
                    ):
                        self.constants[tgt.id] = val
        self.findings: List[Finding] = []

    def resolve(self, expr: ast.expr, path: str, where: str) -> Tuple[Optional[str], str]:
        """(op value or None, source text of the op expression)."""
        lit = _str_const(expr)
        if lit is not None:
            known = next((k for k, v in self.constants.items() if v == lit), None)
            hint = (
                f"use the protocol constant {known} instead"
                if known
                else "no OP_* constant has this value — define one in repro.runtime.protocol"
            )
            self.findings.append(
                Finding(
                    rule="RPC000",
                    path=path,
                    line=expr.lineno,
                    col=expr.col_offset,
                    message=f"string-literal op {lit!r} in {where}; {hint}",
                )
            )
            return lit, repr(lit)
        name = dotted_name(expr)
        term = _terminal(name)
        if term in self.constants:
            return self.constants[term], term
        if term.startswith("OP_") and self.constants:
            self.findings.append(
                Finding(
                    rule="RPC000",
                    path=path,
                    line=expr.lineno,
                    col=expr.col_offset,
                    message=f"unknown op constant '{term}' in {where} — not defined "
                    f"in the protocol module (known: {sorted(self.constants)})",
                )
            )
        return None, term or "<dynamic>"


class _BinOpTable:
    """The ``BIN_OPS = {OP_X: code, ...}`` op table of the protocol
    module: every op of the wire, and its 8-bit wire code.  Malformed
    entries are RPC000 drift — a bad table silently desynchronises
    every peer."""

    def __init__(self, modules: List[_ModuleIndex], ops: _OpResolver):
        #: op value → wire code, for well-formed entries only
        self.codes: Dict[str, int] = {}
        #: op value → table-entry line, for precise findings downstream
        self.lines: Dict[str, int] = {}
        self.site: Optional[Tuple[str, int]] = None
        for idx in modules:
            for node in idx.ctx.tree.body:
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "BIN_OPS"
                    and isinstance(node.value, ast.Dict)
                ):
                    self._parse(node.value, idx.ctx.path, ops)
                    self.site = (idx.ctx.path, node.lineno)

    def _parse(self, table: ast.Dict, path: str, ops: _OpResolver) -> None:
        seen_codes: Dict[int, str] = {}
        for key, value in zip(table.keys, table.values):
            if key is None:  # **splat: nothing static to check
                continue
            op, op_text = ops.resolve(key, path, "BIN_OPS table")
            code = (
                value.value
                if isinstance(value, ast.Constant) and type(value.value) is int
                else None
            )
            if code is None:
                ops.findings.append(
                    Finding(
                        rule="RPC000",
                        path=path,
                        line=value.lineno,
                        col=value.col_offset,
                        message=(
                            f"BIN_OPS entry for {op_text} has a non-integer wire "
                            f"code — the binary header packs it as one byte"
                        ),
                    )
                )
                continue
            if not 1 <= code <= 0xFF:
                ops.findings.append(
                    Finding(
                        rule="RPC000",
                        path=path,
                        line=value.lineno,
                        col=value.col_offset,
                        message=(
                            f"BIN_OPS code {code} for {op_text} does not fit the "
                            f"8-bit op field (must be 1..255)"
                        ),
                    )
                )
                continue
            if code in seen_codes:
                ops.findings.append(
                    Finding(
                        rule="RPC000",
                        path=path,
                        line=value.lineno,
                        col=value.col_offset,
                        message=(
                            f"BIN_OPS code {code} for {op_text} already names "
                            f"{seen_codes[code]!r} — decoders cannot tell the "
                            f"two ops apart"
                        ),
                    )
                )
                continue
            seen_codes[code] = op if op is not None else op_text
            if op is not None:
                self.codes[op] = code
                self.lines[op] = key.lineno


# ----------------------------------------------------------------- runtime stack
def _is_message_call(call: ast.Call, method: str) -> bool:
    name = dotted_name(call.func)
    if not name:
        return False
    parts = name.split(".")
    return len(parts) >= 2 and parts[-1] == method and parts[-2] == "Message"


def _reply_site(call: ast.Call, path: str) -> Optional[ReplySite]:
    if _is_message_call(call, "ok_response"):
        fields = {kw.arg for kw in call.keywords if kw.arg and kw.arg != "payload"}
        return ReplySite(
            kind="ok",
            fields=fields | set(_OK_IMPLICIT),
            wildcard=any(kw.arg is None for kw in call.keywords),
            path=path,
            line=call.lineno,
        )
    if _is_message_call(call, "error_response"):
        fields = {kw.arg for kw in call.keywords if kw.arg}
        return ReplySite(
            kind="error",
            fields=fields | set(_ERROR_IMPLICIT),
            wildcard=any(kw.arg is None for kw in call.keywords),
            path=path,
            line=call.lineno,
        )
    return None


def _header_reads(root: ast.AST, receivers: Set[str], aliases: Set[str]):
    """Yield ``(field, strict, line)`` for header reads under ``root``.

    ``receivers`` are message-object names (reads look like
    ``recv.header.get(...)`` / ``recv.header[...]``); ``aliases`` are
    names already bound to a header dict (``h.get(...)`` / ``h[...]``).
    """
    def _is_header_of(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "header":
            recv = dotted_name(node.value)
            return recv in receivers
        return dotted_name(node) in aliases if aliases else False

    for node in ast.walk(root):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get" and _is_header_of(node.func.value) and node.args:
                f = _str_const(node.args[0])
                if f is not None:
                    yield f, False, node.lineno
        elif isinstance(node, ast.Subscript) and _is_header_of(node.value):
            f = _str_const(node.slice)
            if f is not None and isinstance(node.ctx, ast.Load):
                yield f, True, node.lineno


def _header_aliases(func_node: ast.AST, receivers: Set[str]) -> Set[str]:
    """Names bound via ``h = <recv>.header`` anywhere in the function."""
    aliases: Set[str] = set()
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "header"
            and dotted_name(node.value.value) in receivers
        ):
            aliases.add(node.targets[0].id)
    return aliases


def _wildcard_consumption(func_node: ast.AST, receivers: Set[str], aliases: Set[str]) -> bool:
    """``dict(resp.header)`` / ``dict(h)`` — the caller takes everything."""
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and len(node.args) == 1
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Attribute) and arg.attr == "header":
                if dotted_name(arg.value) in receivers:
                    return True
            elif dotted_name(arg) in aliases:
                return True
    return False


class _RuntimeStack:
    """Extracted sender/handler facts for the Message-over-TCP stack."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.modules = [
            idx
            for idx in graph.modules.values()
            if idx.ctx.in_package("repro", "runtime")
        ]
        paths = {idx.ctx.path for idx in self.modules}
        self.functions = [fi for fi in graph.functions.values() if fi.path in paths]
        self.ops = _OpResolver(self.modules)
        self.bin_table = _BinOpTable(self.modules, self.ops)
        self.requests: List[RequestSite] = []
        self.branches: List[HandlerBranch] = []
        self.consumptions: List[Consumption] = []
        for fi in self.functions:
            self._extract_requests(fi)
            self._extract_branches(fi)
        # consumption extraction needs to know which functions send
        senders = {r.func for r in self.requests}
        for fi in self.functions:
            if fi.qualname in senders:
                self._extract_consumption(fi)

    def _extract_requests(self, fi: FunctionInfo) -> None:
        for node in ast.walk(fi.node):
            if not (isinstance(node, ast.Call) and _is_message_call(node, "request")):
                continue
            op_expr: Optional[ast.expr] = node.args[0] if node.args else None
            if op_expr is None:
                op_expr = next(
                    (kw.value for kw in node.keywords if kw.arg == "op"), None
                )
            if op_expr is None:
                continue
            op, op_text = self.ops.resolve(op_expr, fi.path, "Message.request")
            self.requests.append(
                RequestSite(
                    op=op,
                    op_text=op_text,
                    fields={kw.arg for kw in node.keywords if kw.arg and kw.arg != "op"},
                    wildcard=any(kw.arg is None for kw in node.keywords),
                    path=fi.path,
                    line=node.lineno,
                    func=fi.qualname,
                )
            )

    # -- handler side ------------------------------------------------------------
    def _extract_branches(self, fi: FunctionInfo) -> None:
        params = {
            a.arg
            for a in [
                *fi.node.args.posonlyargs,  # type: ignore[attr-defined]
                *fi.node.args.args,  # type: ignore[attr-defined]
                *fi.node.args.kwonlyargs,  # type: ignore[attr-defined]
            ]
        }
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.left, ast.Attribute)
                and test.left.attr == "op"
            ):
                continue
            recv = dotted_name(test.left.value)
            if recv not in params:
                continue
            op, op_text = self.ops.resolve(
                test.comparators[0], fi.path, "handler dispatch"
            )
            branch = HandlerBranch(
                op=op, op_text=op_text, path=fi.path, line=node.lineno
            )
            body = ast.Module(body=node.body, type_ignores=[])
            branch.reads.extend(_header_reads(body, {recv}, set()))
            self._collect_replies(fi, node.body, branch, visited=set())
            self.branches.append(branch)

    def _collect_replies(
        self,
        fi: FunctionInfo,
        body: List[ast.stmt],
        branch: HandlerBranch,
        visited: Set[str],
    ) -> None:
        """Reply constructions in a branch body, following project-local
        helper calls (``self._read(...)``) transitively."""
        calls_seen: List[ast.Call] = []
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    site = _reply_site(node, fi.path)
                    if site is not None:
                        branch.replies.append(site)
                    else:
                        calls_seen.append(node)
        stack_paths = {idx.ctx.path for idx in self.modules}
        site_map = {id(cs.node): cs for cs in self.graph.callees_of(fi.qualname)}
        for call in calls_seen:
            cs = site_map.get(id(call))
            if cs is None:
                continue
            for callee in cs.callees:
                if callee in visited:
                    continue
                visited.add(callee)
                cfi = self.graph.functions.get(callee)
                if cfi is None or cfi.path not in stack_paths:
                    continue
                self._collect_replies(cfi, cfi.node.body, branch, visited)  # type: ignore[arg-type]

    # -- client side -------------------------------------------------------------
    def _extract_consumption(self, fi: FunctionInfo) -> None:
        ops = {r.op for r in self.requests if r.func == fi.qualname and r.op}
        # any local name can hold the response; restrict to ``X.header``
        # shaped reads so request-construction code stays out
        receivers = {
            dotted_name(n.value)
            for n in ast.walk(fi.node)
            if isinstance(n, ast.Attribute) and n.attr == "header"
        }
        receivers = {r for r in receivers if r}
        aliases = _header_aliases(fi.node, receivers)
        reads = list(_header_reads(fi.node, receivers, aliases))
        wildcard = _wildcard_consumption(fi.node, receivers, aliases)
        if reads or wildcard:
            self.consumptions.append(
                Consumption(
                    func=fi.qualname,
                    ops=ops,
                    reads=reads,
                    wildcard=wildcard,
                    path=fi.path,
                )
            )


# -------------------------------------------------------------------- hvac stack
@dataclass
class _DataclassInfo:
    name: str
    path: str
    line: int
    fields: Set[str]
    #: fields plus properties/methods — anything valid to read
    readable: Set[str]


def _hvac_dataclasses(modules: List[_ModuleIndex]) -> Dict[str, _DataclassInfo]:
    out: Dict[str, _DataclassInfo] = {}
    for idx in modules:
        for node in idx.ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not (node.name.endswith("Request") or node.name.endswith("Response")):
                continue
            fields: Set[str] = set()
            readable: Set[str] = set()
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields.add(item.target.id)
                    readable.add(item.target.id)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    readable.add(item.name)
            out[node.name] = _DataclassInfo(
                name=node.name,
                path=idx.ctx.path,
                line=node.lineno,
                fields=fields,
                readable=readable,
            )
    return out


def _check_hvac(graph: CallGraph) -> Iterable[Finding]:
    modules = [
        idx for idx in graph.modules.values() if idx.ctx.in_package("repro", "hvac")
    ]
    if not modules:
        return
    classes = _hvac_dataclasses(modules)
    if not classes:
        return
    paths = {idx.ctx.path for idx in modules}
    for fi in graph.functions.values():
        if fi.path not in paths:
            continue
        yield from _check_hvac_function(fi, classes)


def _check_hvac_function(
    fi: FunctionInfo, classes: Dict[str, _DataclassInfo]
) -> Iterable[Finding]:
    #: local name → dataclass it is presumed to hold
    var_types: Dict[str, str] = {}
    constructed_requests: List[str] = []
    for node in ast.walk(fi.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = _terminal(dotted_name(node.annotation)) if node.annotation else ""
            if ann in classes:
                var_types[node.target.id] = ann
        elif isinstance(node, ast.Call):
            cname = _terminal(dotted_name(node.func))
            if cname in classes:
                info = classes[cname]
                if cname.endswith("Request"):
                    constructed_requests.append(cname)
                rule = "RPC003" if cname.endswith("Request") else "RPC004"
                for kw in node.keywords:
                    if kw.arg and kw.arg not in info.fields:
                        yield Finding(
                            rule=rule,
                            path=fi.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"constructs {cname} with unknown field "
                                f"'{kw.arg}' — the dataclass at "
                                f"{info.path}:{info.line} defines "
                                f"{sorted(info.fields)}"
                            ),
                        )
    # ``served = result.value`` in a function that built XRequest is
    # presumed to hold the paired XResponse
    for req_name in constructed_requests:
        resp_name = req_name[: -len("Request")] + "Response"
        if resp_name not in classes:
            continue
        for node in ast.walk(fi.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "value"
            ):
                var_types.setdefault(node.targets[0].id, resp_name)
    for node in ast.walk(fi.node):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        recv = dotted_name(node.value)
        if recv not in var_types:
            continue
        info = classes[var_types[recv]]
        if node.attr not in info.readable:
            rule = "RPC003" if info.name.endswith("Request") else "RPC004"
            yield Finding(
                rule=rule,
                path=fi.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"reads '{recv}.{node.attr}' but {info.name} "
                    f"({info.path}:{info.line}) has no such field — it defines "
                    f"{sorted(info.readable)}"
                ),
            )


# ------------------------------------------------------------------- the rule
class RpcConformanceRule(ProjectRule):
    rules = (
        ("RPC000", "op string-literal drift / unknown OP_* constant"),
        ("RPC001", "op sent by a client but handled by no server branch"),
        ("RPC002", "handler branch for an op no client sends"),
        ("RPC003", "request field read by a handler but supplied by no sender"),
        ("RPC004", "response field consumed by a client but not set on every server reply path"),
    )

    def check_project(self, graph: CallGraph) -> Iterable[Finding]:
        stack = _RuntimeStack(graph)
        yield from stack.ops.findings
        yield from self._check_runtime(stack)
        yield from _check_hvac(graph)

    def _check_runtime(self, stack: _RuntimeStack) -> Iterable[Finding]:
        sent_ops = {r.op for r in stack.requests if r.op}
        handled_ops = {b.op for b in stack.branches if b.op}
        has_senders = bool(stack.requests)
        has_handlers = bool(stack.branches)

        if has_handlers:
            for site in stack.requests:
                if site.op and site.op not in handled_ops:
                    yield Finding(
                        rule="RPC001",
                        path=site.path,
                        line=site.line,
                        message=(
                            f"op {site.op_text} ({site.op!r}) is sent here but no "
                            f"handler dispatch branch matches it — the server will "
                            f"answer 'unknown op'"
                        ),
                    )
        if has_senders:
            for branch in stack.branches:
                if branch.op and branch.op not in sent_ops:
                    yield Finding(
                        rule="RPC002",
                        path=branch.path,
                        line=branch.line,
                        message=(
                            f"handler branch for op {branch.op_text} "
                            f"({branch.op!r}) but no client code ever sends it — "
                            f"dead protocol surface or a missing sender"
                        ),
                    )

        # Binary op table: every BIN_OPS entry is a wire capability, so it
        # must be dispatchable server-side and actually used client-side.
        table = stack.bin_table
        if table.site is not None:
            path, site_line = table.site
            if has_handlers:
                for op in sorted(table.codes):
                    if op not in handled_ops:
                        yield Finding(
                            rule="RPC001",
                            path=path,
                            line=table.lines.get(op, site_line),
                            message=(
                                f"binary op table entry {op!r} (code "
                                f"{table.codes[op]}) matches no handler dispatch "
                                f"branch — the binary codec decodes frames "
                                f"nothing can serve"
                            ),
                        )
            if has_senders:
                for op in sorted(table.codes):
                    if op not in sent_ops:
                        yield Finding(
                            rule="RPC002",
                            path=path,
                            line=table.lines.get(op, site_line),
                            message=(
                                f"binary op table entry {op!r} (code "
                                f"{table.codes[op]}) is sent by no client — "
                                f"dead binary wire surface"
                            ),
                        )

        # RPC003: request fields the handler reads vs fields senders supply
        for branch in stack.branches:
            if not branch.op or branch.op not in sent_ops:
                continue
            senders = [r for r in stack.requests if r.op == branch.op]
            for fname, strict, line in branch.reads:
                if any(fname in s.fields or s.wildcard for s in senders):
                    continue
                where = ", ".join(f"{s.path}:{s.line}" for s in senders[:3])
                yield Finding(
                    rule="RPC003",
                    path=branch.path,
                    line=line,
                    message=(
                        f"handler for op {branch.op_text} reads request field "
                        f"{fname!r} but no sender supplies it "
                        f"(senders: {where})"
                    ),
                )

        # RPC004: response fields consumed vs fields set on reply paths
        for cons in stack.consumptions:
            if cons.wildcard:
                continue
            for op in sorted(cons.ops):
                replies = [r for b in stack.branches if b.op == op for r in b.replies]
                if not replies:
                    continue
                ok_replies = [r for r in replies if r.kind == "ok"]
                for fname, strict, line in cons.reads:
                    if strict:
                        deficient = [
                            r
                            for r in ok_replies
                            if not r.wildcard and fname not in r.fields
                        ]
                        if ok_replies and deficient:
                            where = ", ".join(
                                f"{r.path}:{r.line}" for r in deficient[:3]
                            )
                            yield Finding(
                                rule="RPC004",
                                path=cons.path,
                                line=line,
                                message=(
                                    f"response field {fname!r} of op {op!r} is "
                                    f"consumed here with [] (required) but not "
                                    f"set on every ok reply path — missing at: "
                                    f"{where}; set the field there or read with "
                                    f".get()"
                                ),
                            )
                    else:
                        if not any(fname in r.fields or r.wildcard for r in replies):
                            where = ", ".join(
                                f"{r.path}:{r.line}" for r in replies[:3]
                            )
                            yield Finding(
                                rule="RPC004",
                                path=cons.path,
                                line=line,
                                message=(
                                    f"response field {fname!r} of op {op!r} is "
                                    f"consumed here but set on no server reply "
                                    f"path (replies: {where})"
                                ),
                            )
