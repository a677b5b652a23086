"""Pass 1: static lock-graph verification.

Builds the whole-program lock acquisition graph:

  * every `LockLevel` enum constant (from common/sync.h, or from any
    scanned file declaring `enum class LockLevel`) becomes a node;
  * every Mutex/SharedMutex declaration is resolved to its level — via
    the brace initializer (`Mutex mu_{LockLevel::kQueue}`), a local
    `static constexpr LockLevel kFooLockLevel = ...` constant, or a
    derived mutex class whose constructor pins the level;
  * every RAII acquisition site (MutexLock / ReaderMutexLock /
    WriterMutexLock) is located inside its function body, and lexical
    nesting of guards yields held->acquired edges;
  * calls made while holding a lock propagate the callee's transitive
    acquisition set (callees resolved through receiver typing: class
    members, local declarations, same-class methods, free functions);
  * a local object handed to a call the resolver cannot follow (an
    operator's virtual hook, `updater->Update(utils, ...)`) is modelled
    as having each of its methods called there, so what an updater
    reaches through its utilities object counts under the caller's locks;
  * MUPPET_REQUIRES(mu) on the header declaration seeds the entry-held
    set of the matching definition; MUPPET_EXCLUDES(mu) is verified at
    call sites.

Violations: an acquisition edge whose destination level is <= the
source level (the runtime checker demands strictly increasing levels),
and any call into an EXCLUDES(mu) function while mu's level is held.
Edges touching kUnordered are exempt, matching the runtime checker.

The extracted graph is emitted as DOT (--dot) so CI can archive the
artifact; inverted edges are drawn red.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from cpp_model import (ANNOT_RE, ClassInfo, Finding, FunctionInfo,
                       MemberField, SourceFile, extract_lambdas,
                       parse_classes, parse_functions, split_top_level)

CHECK = "lock-graph"

MUTEX_BASE_TYPES = ("Mutex", "SharedMutex")
GUARD_TYPES = {
    "MutexLock": "exclusive",
    "WriterMutexLock": "exclusive",
    "ReaderMutexLock": "shared",
}

ENUM_RE = re.compile(r"enum\s+class\s+LockLevel\s*(?::\s*\w+\s*)?\{([^}]*)\}")
ENUM_ENTRY_RE = re.compile(r"(k\w+)\s*=\s*(\d+)")
LEVEL_CONST_RE = re.compile(
    r"\bconstexpr\s+LockLevel\s+(k\w+)\s*=\s*LockLevel::(k\w+)")
GLOBAL_MUTEX_RE = re.compile(
    r"\b(?:muppet::)?(Mutex|SharedMutex)\s+([a-zA-Z_]\w*)\s*\{([^}]*)\}")
ELEMENT_OF_RE = re.compile(r"(?:std::)?(?:array|vector)\s*<\s*([\w:]+)")
GUARD_DECL_RE = re.compile(
    r"\b(MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+\s*"
    r"([\(\{])\s*([^;]*?)\s*[\)\}]\s*;")
# The receiver keeps its whole member chain (`machine->changelog->`).
CALL_RE = re.compile(r"((?:[\w\]\)]+(?:->|\.))+)?\b([A-Za-z_]\w*)\s*\(")
LOCAL_DECL_RE = re.compile(
    r"\b([A-Z]\w*(?:::\w+)*)\s*[*&]?\s+([a-z_]\w*)\s*[=;({]")
PARAM_DECL_RE = re.compile(
    r"\b([A-Z]\w*(?:::\w+)*)\s*[*&]?\s*([a-z_]\w*)\s*[,)=]")

# Calls that run a lambda argument on a new thread (`std::thread t(..)`
# included) or store it for later, rather than call it in the caller.
DEFERRED_CALLEES = {"thread", "jthread", "async", "emplace_back",
                    "push_back", "push_front", "emplace", "insert"}

NOT_CALLEES = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "assert", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "defined", "alignof", "decltype",
    "emplace_back", "push_back",
}


@dataclass
class MutexDecl:
    cls: str             # owning class ("" for globals/locals)
    member: str
    level: str           # enum constant name, e.g. "kQueue"
    file: SourceFile
    line: int
    shared: bool


@dataclass
class Acquisition:
    level: str
    offset: int          # in file code
    scope_end: int       # offset where the guard is destroyed
    line: int
    mutex_expr: str


@dataclass
class FuncModel:
    fn: FunctionInfo
    body_text: str       # with lambdas blanked
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[tuple[int, str, str]] = field(default_factory=list)
    # (offset, receiver_expr or "", callee_name)
    # Per call: the bare identifiers among its arguments.
    call_args: list[list[str]] = field(default_factory=list)
    entry_held: list[str] = field(default_factory=list)   # levels
    excludes: list[str] = field(default_factory=list)     # levels
    local_types: dict[str, str] = field(default_factory=dict)
    param_types: dict[str, str] = field(default_factory=dict)


@dataclass
class Edge:
    src: str
    dst: str
    count: int
    example: str         # "path:line (FuncKey)"
    inverted: bool


class LockGraphPass:
    def __init__(self, files: list[SourceFile]) -> None:
        self.files = files
        self.findings: list[Finding] = []
        self.levels: dict[str, int] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.class_list: list[ClassInfo] = []
        self.mutexes: list[MutexDecl] = []
        self.mutex_by_class: dict[tuple[str, str], MutexDecl] = {}
        self.mutex_by_name: dict[str, list[MutexDecl]] = {}
        self.derived_mutex_levels: dict[str, str] = {}
        self.funcs: dict[str, list[FuncModel]] = {}
        self.edges: dict[tuple[str, str], Edge] = {}
        self.unresolved: list[str] = []

    # -- model building ----------------------------------------------------

    def run(self) -> list[Finding]:
        self._collect_levels()
        if not self.levels:
            self.findings.append(Finding(
                CHECK, "(global)", 1,
                "no `enum class LockLevel` found in scanned files; "
                "cannot build the lock graph"))
            return self.findings
        self._collect_classes()
        self._collect_mutexes()
        self._collect_functions()
        self._model_handed_objects()
        self._resolve_calls_and_edges()
        return self.findings

    def _collect_levels(self) -> None:
        for sf in self.files:
            m = ENUM_RE.search(sf.code)
            if m:
                for em in ENUM_ENTRY_RE.finditer(m.group(1)):
                    self.levels[em.group(1)] = int(em.group(2))

    def _collect_classes(self) -> None:
        for sf in self.files:
            for ci in parse_classes(sf):
                self.classes.setdefault(ci.name, []).append(ci)
                self.class_list.append(ci)

    def _level_consts(self, sf: SourceFile) -> dict[str, str]:
        """Level-constant names declared in one file, unique names only
        (two classes in one file may both declare kLockLevel)."""
        found: dict[str, set[str]] = {}
        for m in LEVEL_CONST_RE.finditer(sf.code):
            found.setdefault(m.group(1), set()).add(m.group(2))
        return {k: next(iter(v)) for k, v in found.items() if len(v) == 1}

    def _global_level_consts(self) -> dict[str, str]:
        if not hasattr(self, "_global_consts"):
            found: dict[str, set[str]] = {}
            for sf in self.files:
                for m in LEVEL_CONST_RE.finditer(sf.code):
                    found.setdefault(m.group(1), set()).add(m.group(2))
            self._global_consts = {k: next(iter(v))
                                   for k, v in found.items() if len(v) == 1}
        return self._global_consts

    def _collect_mutexes(self) -> None:
        # Derived mutex classes: `struct X : Mutex { X() : Mutex(EXPR) .. }`
        for ci in self.class_list:
            if not any(b in MUTEX_BASE_TYPES for b in ci.bases):
                continue
            body = ci.file.code[ci.body_start:ci.body_end]
            m = re.search(r":\s*(?:Mutex|SharedMutex)\s*\(([^)]*)\)", body)
            if m:
                lvl = self._resolve_level_expr(m.group(1), ci.file, ci.name)
                if lvl:
                    self.derived_mutex_levels[ci.name] = lvl

        mutex_types = set(MUTEX_BASE_TYPES) | set(self.derived_mutex_levels)
        for ci in self.class_list:
            consts = self._level_consts(ci.file)
            for f in ci.fields:
                base = f.type_text.split("::")[-1].strip()
                base = re.sub(r"[<>*&\s\[].*$", "", base)
                elem = None
                em = ELEMENT_OF_RE.search(f.type_text)
                if em:
                    elem = em.group(1).split("::")[-1]
                if base in mutex_types:
                    mutex_type = base
                elif elem in mutex_types:
                    mutex_type = elem  # array/vector of (derived) mutexes
                else:
                    continue
                if mutex_type in self.derived_mutex_levels:
                    lvl = self.derived_mutex_levels[mutex_type]
                else:
                    lvl = self._resolve_level_expr(
                        f.init_text, ci.file, ci.name, consts)
                if lvl is None:
                    lvl = "kUnordered" if not f.init_text else None
                if lvl is None:
                    self.unresolved.append(
                        f"{ci.file.rel}:{f.line}: mutex {ci.name}::{f.name} "
                        f"has unresolvable level init {f.init_text!r}")
                    continue
                decl = MutexDecl(
                    cls=ci.name, member=f.name, level=lvl, file=ci.file,
                    line=f.line, shared="Shared" in f.type_text)
                self.mutexes.append(decl)
                self.mutex_by_class[(ci.name, f.name)] = decl
                self.mutex_by_name.setdefault(f.name, []).append(decl)

        # File-scope mutexes (e.g. `Mutex g_sink_mutex{LockLevel::kLogging}`
        # in logging.cc) live outside any class body.
        class_spans = {sf.rel: [(c.start, c.body_end)
                                for c in self.class_list if c.file is sf]
                       for sf in self.files}
        for sf in self.files:
            for m in GLOBAL_MUTEX_RE.finditer(sf.code):
                if any(s <= m.start() < e for s, e in class_spans[sf.rel]):
                    continue
                lvl = self._resolve_level_expr(m.group(3), sf, "")
                if lvl is None:
                    continue
                decl = MutexDecl(
                    cls="", member=m.group(2), level=lvl, file=sf,
                    line=sf.line_of(m.start()),
                    shared=m.group(1) == "SharedMutex")
                self.mutexes.append(decl)
                self.mutex_by_name.setdefault(m.group(2), []).append(decl)

    def _resolve_level_expr(self, expr: str, sf: SourceFile, cls: str,
                            consts: dict[str, str] | None = None) -> str | None:
        expr = expr.strip()
        if not expr:
            return None
        m = re.search(r"LockLevel::(k\w+)", expr)
        if m:
            return m.group(1)
        m = re.match(r"(k\w+)$", expr)
        if m:
            name = m.group(1)
            # Own class first: many classes declare their own kLockLevel.
            for other in self.class_list:
                if other.name == cls:
                    fld = other.field_named(name)
                    if fld is not None:
                        lm = re.search(r"LockLevel::(k\w+)", fld.init_text)
                        if lm:
                            return lm.group(1)
            if consts is None:
                consts = self._level_consts(sf)
            if name in consts:
                return consts[name]
            # A constant declared in another class of the same file
            # (e.g. nested struct referencing the outer constant).
            for other in self.class_list:
                if other.file is sf:
                    fld = other.field_named(name)
                    if fld is not None:
                        lm = re.search(r"LockLevel::(k\w+)", fld.init_text)
                        if lm:
                            return lm.group(1)
            # Cross-file (a .cc naming a constant pinned in its header),
            # accepted only when the name is globally unambiguous.
            return self._global_level_consts().get(name)
        return None

    def _collect_functions(self) -> None:
        lambda_counter = [0]
        for sf in self.files:
            classes = [c for c in self.class_list if c.file is sf]
            fns = parse_functions(sf, classes)
            all_fns: list[tuple[FunctionInfo, str]] = []
            for fn in fns:
                blanked, lams = extract_lambdas(sf, fn, lambda_counter)
                all_fns.append((fn, blanked))
                for lam in lams:
                    all_fns.append(
                        (lam, sf.code[lam.body_start:lam.body_end]))
            models = []
            for fn, body_text in all_fns:
                fm = self._model_function(fn, body_text)
                self.funcs.setdefault(fm_key(fn), []).append(fm)
                models.append(fm)
            for fm in models:
                if fm.fn.is_lambda:
                    _bind_lambda_argument(fm.fn, models)

    def _model_handed_objects(self) -> None:
        """A local object handed to a call the resolver cannot follow (an
        operator's virtual hook: `updater->Update(utils, ...)`) may have
        any of its methods called there. Model a call to each, so the
        locks an updater takes through its utilities object (publishing,
        slate writes) count as taken under the caller's locks."""
        methods: dict[str, set[str]] = {}
        for key in self.funcs:
            if "::" in key and "lambda#" not in key:
                cls, name = key.rsplit("::", 1)
                methods.setdefault(cls, set()).add(name)
        for models in self.funcs.values():
            for fm in models:
                handed = []
                for (off, recv, callee), args in zip(fm.calls, fm.call_args):
                    if self._candidate_keys(fm, recv, callee):
                        continue
                    for arg in args:
                        for name in methods.get(fm.local_types.get(arg), ()):
                            handed.append((off, arg, name))
                fm.calls.extend(handed)

    def _model_function(self, fn: FunctionInfo, body_text: str) -> FuncModel:
        sf = fn.file
        fm = FuncModel(fn=fn, body_text=body_text)
        # Entry-held levels from MUPPET_REQUIRES on the definition header
        # or the matching in-class declaration.
        for args in self._annotation_args(fn, ("MUPPET_REQUIRES",
                                               "MUPPET_REQUIRES_SHARED")):
            lvl = self._mutex_expr_level(args, fn)
            if lvl:
                fm.entry_held.append(lvl)
        for args in self._annotation_args(fn, ("MUPPET_EXCLUDES",)):
            lvl = self._mutex_expr_level(args, fn)
            if lvl:
                fm.excludes.append(lvl)

        for m in LOCAL_DECL_RE.finditer(body_text):
            fm.local_types.setdefault(m.group(2), m.group(1).split("::")[-1])
        for m in PARAM_DECL_RE.finditer(fn.header_text):
            fm.param_types.setdefault(m.group(2), m.group(1).split("::")[-1])

        base = fn.body_start
        for gm in GUARD_DECL_RE.finditer(body_text):
            arg = split_top_level(gm.group(3))
            expr = arg[0] if arg else ""
            lvl = self._mutex_expr_level(expr, fn, fm)
            off = base + gm.start()
            if lvl is None:
                self.unresolved.append(
                    f"{sf.rel}:{sf.line_of(off)}: cannot resolve level of "
                    f"guard expression {expr!r} in {fm_key(fn)}")
                continue
            fm.acquisitions.append(Acquisition(
                level=lvl, offset=off,
                scope_end=base + _scope_end(body_text, gm.start()),
                line=sf.line_of(off), mutex_expr=expr))
        for cm in CALL_RE.finditer(body_text):
            callee = cm.group(2)
            if callee in NOT_CALLEES or callee in GUARD_TYPES:
                continue
            recv = (cm.group(1) or "").rstrip(".->")
            fm.calls.append((base + cm.start(), recv, callee))
            fm.call_args.append(_identifier_args(body_text, cm.end() - 1))
        return fm

    def _annotation_args(self, fn: FunctionInfo,
                         names: tuple[str, ...]) -> list[str]:
        out = []
        for macro, args in (
                (m.group(1), m.group(2))
                for m in ANNOT_RE.finditer(fn.header_text)):
            if macro in names:
                out.extend(a.strip() for a in split_top_level(args))
        if fn.cls and not fn.is_lambda:
            # Find the in-class declaration carrying the annotation.
            for ci in self.classes.get(fn.cls, ()):
                body = ci.file.code[ci.body_start:ci.body_end]
                for dm in re.finditer(
                        r"\b" + re.escape(fn.name) + r"\s*\(", body):
                    tail = body[dm.end():dm.end() + 400]
                    stop = tail.find(";")
                    brace = tail.find("{")
                    if stop < 0 or (0 <= brace < stop):
                        continue
                    for am in ANNOT_RE.finditer(tail[:stop]):
                        if am.group(1) in names:
                            out.extend(a.strip() for a in
                                       split_top_level(am.group(2)))
        return out

    # -- resolution --------------------------------------------------------

    def _mutex_expr_level(self, expr: str, fn: FunctionInfo,
                          fm: FuncModel | None = None) -> str | None:
        """Resolve a guard argument like `mutex_`, `this->mu_`,
        `stripe.mutex`, `stripes_[i]`, `node->cf_mutex_` to a level."""
        expr = expr.strip()
        if not expr:
            return None
        expr = re.sub(r"^\*", "", expr)
        expr = re.sub(r"^this\s*->\s*", "", expr)
        expr = re.sub(r"\[[^\]]*\]", "", expr)  # drop indexing
        parts = re.split(r"->|\.", expr)
        leaf = parts[-1].strip()
        recv = parts[-2].strip() if len(parts) > 1 else ""
        leaf = re.sub(r"\(\)$", "", leaf)

        # Receiver typed via locals or members of the enclosing class.
        recv_type = None
        if recv:
            recv = re.sub(r"\(\)$", "", recv)
            if fm is not None and recv in fm.local_types:
                recv_type = fm.local_types[recv]
            if recv_type is None and fn.cls:
                fld = self._member_field(fn.cls, recv)
                if fld is not None:
                    recv_type = self._field_value_type(fld.type_text)
            if recv_type is None and fm is not None:
                recv_type = self._infer_local_type(fm, fn, recv)
        if recv_type and (recv_type, leaf) in self.mutex_by_class:
            return self.mutex_by_class[(recv_type, leaf)].level
        if not recv and fn.cls:
            for cls in self._class_chain(fn.cls):
                if (cls, leaf) in self.mutex_by_class:
                    return self.mutex_by_class[(cls, leaf)].level
        # Nested-struct members (e.g. Muppet2 Machine) fall back to the
        # unique-global-name table.
        decls = self.mutex_by_name.get(leaf, [])
        if len({d.level for d in decls}) == 1:
            return decls[0].level
        # A local guard on a locally declared mutex (tests, fixtures).
        if fm is not None and leaf in fm.local_types:
            t = fm.local_types[leaf]
            if t in self.derived_mutex_levels:
                return self.derived_mutex_levels[t]
            if t in MUTEX_BASE_TYPES:
                m = re.search(re.escape(leaf) + r"\s*[\{\(]\s*"
                              r"(?:LockLevel::)?(k\w+)", fm.body_text)
                if m and m.group(1) in self.levels:
                    return m.group(1)
                return "kUnordered"
        return None

    def _class_chain(self, cls: str) -> list[str]:
        """`cls` then its base classes, nearest first, so members and
        methods a class inherits (Muppet2Engine's from Engine) resolve like
        its own."""
        chain: list[str] = []
        todo = [cls]
        while todo:
            name = todo.pop(0)
            if name in chain:
                continue
            chain.append(name)
            for ci in self.classes.get(name, ()):
                todo.extend(b.split("::")[-1] for b in ci.bases)
        return chain

    def _member_field(self, cls: str, name: str) -> MemberField | None:
        for c in self._class_chain(cls):
            for ci in self.classes.get(c, ()):
                fld = ci.field_named(name)
                if fld is not None:
                    return fld
        return None

    def _field_value_type(self, type_text: str) -> str:
        """Base type of a member, looking through array/vector/unique_ptr
        element types (`std::array<Stripe, N>` -> Stripe)."""
        em = re.search(r"(?:std::)?(?:array|vector|unique_ptr|shared_ptr)"
                       r"\s*<\s*([\w:]+)", type_text)
        t = em.group(1) if em else type_text
        t = t.split("::")[-1]
        return re.sub(r"[<>*&\s\[].*$", "", t)

    def _infer_local_type(self, fm: FuncModel, fn: FunctionInfo,
                          name: str) -> str | None:
        """Type a local declared as `auto& x = <member-expr>;` by typing
        the right-hand side through the enclosing class's members."""
        # Explicitly typed reference declarations, including range-for:
        # `OverrideState& state = *override_state_;`
        # `for (const Stripe& stripe : stripes_)`
        dm = re.search(r"\b(?:const\s+)?([A-Z][\w:]*)\s*&\s*" +
                       re.escape(name) + r"\s*[=:]", fm.body_text)
        if dm:
            return dm.group(1).split("::")[-1]
        m = re.search(r"\b" + re.escape(name) + r"\s*=\s*([^;]{1,160});",
                      fm.body_text)
        if not m:
            return None
        rhs = m.group(1).strip()
        rhs = rhs.lstrip("*&")          # `auto& s = *ptr_member_;`
        rhs = re.sub(r"\[[^\]]*\]", "", rhs)
        rhs = re.sub(r"\(\)$", "", rhs)
        leaf = rhs.split("->")[-1].split(".")[-1].strip()
        if not re.fullmatch(r"[A-Za-z_]\w*", leaf):
            return None
        if fn.cls:
            fld = self._member_field(fn.cls, leaf)
            if fld is not None:
                return self._field_value_type(fld.type_text)
        if leaf in fm.local_types:
            return fm.local_types[leaf]
        return None

    def _chain_type(self, fm: FuncModel, recv: str) -> str | None:
        """Type of a receiver chain `a->b.c`: `a` is a local, a parameter
        or a member of the enclosing class; each later name is a member
        of the type before it. None when the chain has one link or any
        link is untyped."""
        recv = re.sub(r"^this\s*->\s*", "", recv)
        links = [re.sub(r"\[[^\]]*\]|\(\)$", "", x).strip()
                 for x in re.split(r"->|\.", recv)]
        if len(links) < 2:
            return None
        head = links[0]
        t = fm.local_types.get(head) or fm.param_types.get(head)
        if t is None and fm.fn.cls:
            fld = self._member_field(fm.fn.cls, head)
            t = self._field_value_type(fld.type_text) if fld else None
        for link in links[1:]:
            if t is None:
                return None
            fld = self._member_field(t, link)
            t = self._field_value_type(fld.type_text) if fld else None
        return t

    def _transitive_acquires(self) -> dict[str, set[str]]:
        """funcKey -> set of levels the function may acquire, transitively."""
        direct: dict[str, set[str]] = {}
        callees: dict[str, set[str]] = {}
        for key, models in self.funcs.items():
            acq = set()
            outs = set()
            for fm in models:
                acq.update(a.level for a in fm.acquisitions)
                for _, recv, callee in fm.calls:
                    for ck in self._candidate_keys(fm, recv, callee):
                        outs.add(ck)
            direct[key] = acq
            callees[key] = outs
        closure = {k: set(v) for k, v in direct.items()}
        changed = True
        while changed:
            changed = False
            for key, outs in callees.items():
                for ck in outs:
                    add = closure.get(ck)
                    if add and not add <= closure[key]:
                        closure[key] |= add
                        changed = True
        return closure

    def _candidate_keys(self, fm: FuncModel, recv: str,
                        callee: str) -> list[str]:
        """Resolve a call site to function keys — only when unambiguous.

        Unresolvable receivers are skipped rather than unioned across
        every class declaring a method of that name: a wrong union would
        manufacture edges that exist on no real path.
        """
        fn = fm.fn
        if recv:
            recv_base = re.sub(r"\[[^\]]*\]", "", recv)
            recv_base = re.sub(r"^this\s*->\s*", "", recv_base)
            recv_base = recv_base.split("->")[-1].split(".")[-1]
            recv_type = fm.local_types.get(recv_base)
            if recv_type is None and fn.cls:
                fld = self._member_field(fn.cls, recv_base)
                if fld is not None:
                    recv_type = re.sub(r"[<>*&\s].*$", "",
                                       fld.type_text.split("::")[-1])
            if recv_type and f"{recv_type}::{callee}" in self.funcs:
                return [f"{recv_type}::{callee}"]
            if recv_type:
                return []
            # A member chain (`machine->changelog->Append`): type its head,
            # then each member in turn.
            chain_type = self._chain_type(fm, recv)
            if chain_type and f"{chain_type}::{callee}" in self.funcs:
                return [f"{chain_type}::{callee}"]
            # Unknown receiver: resolve only if exactly one class defines
            # the method.
            keys = [k for k in self.funcs
                    if k.endswith(f"::{callee}") and "lambda#" not in k]
            return keys if len(keys) == 1 else []
        if fn.cls:
            for cls in self._class_chain(fn.cls):
                if f"{cls}::{callee}" in self.funcs:
                    return [f"{cls}::{callee}"]
        if callee in self.funcs:
            return [callee]
        return []

    def _resolve_calls_and_edges(self) -> None:
        closure = self._transitive_acquires()
        excludes_of: dict[str, set[str]] = {}
        for key, models in self.funcs.items():
            exc = set()
            for fm in models:
                exc.update(fm.excludes)
            if exc:
                excludes_of[key] = exc

        for models in self.funcs.values():
            for fm in models:
                self._edges_for(fm, closure, excludes_of)

        for key, edge in sorted(self.edges.items()):
            if edge.inverted:
                sf, line = _example_site(edge)
                self.findings.append(Finding(
                    CHECK, sf, line,
                    f"lock-order inversion: acquiring {edge.dst} "
                    f"(level {self.levels.get(edge.dst, '?')}) while "
                    f"holding {edge.src} "
                    f"(level {self.levels.get(edge.src, '?')}) — the "
                    f"hierarchy requires strictly increasing levels "
                    f"[at {edge.example}]"))

    def _edges_for(self, fm: FuncModel, closure: dict[str, set[str]],
                   excludes_of: dict[str, set[str]]) -> None:
        sf = fm.fn.file
        regions: list[tuple[str, int, int, int]] = [
            (lvl, fm.fn.body_start, fm.fn.body_end, fm.fn.line)
            for lvl in fm.entry_held]
        regions += [(a.level, a.offset, a.scope_end, a.line)
                    for a in fm.acquisitions]

        for held, start, end, _ in regions:
            for a in fm.acquisitions:
                if start < a.offset < end:
                    self._add_edge(held, a.level, sf, a.line, fm)
            for off, recv, callee in fm.calls:
                if not start < off < end:
                    continue
                for ck in self._candidate_keys(fm, recv, callee):
                    for lvl in closure.get(ck, ()):
                        self._add_edge(held, lvl, sf, sf.line_of(off), fm,
                                       via=ck)
                    for lvl in excludes_of.get(ck, ()):
                        if lvl == held and not sf.allows(
                                CHECK, sf.line_of(off)):
                            self.findings.append(Finding(
                                CHECK, sf.rel, sf.line_of(off),
                                f"call to {ck} which EXCLUDES level {lvl} "
                                f"while {lvl} is held in {fm_key(fm.fn)} "
                                f"(self-deadlock)"))

    def _add_edge(self, src: str, dst: str, sf: SourceFile, line: int,
                  fm: FuncModel, via: str = "") -> None:
        if src == "kUnordered" or dst == "kUnordered":
            return
        if src == dst and via:
            # Transitive same-level edges through a call are usually a
            # re-lock the callee takes after the caller released; the
            # direct-nesting case below still reports them.
            return
        inverted = self.levels.get(dst, 0) <= self.levels.get(src, 0)
        if inverted and sf.allows(CHECK, line):
            inverted = False
        key = (src, dst)
        where = f"{sf.rel}:{line}" + (f" via {via}" if via else "")
        prev = self.edges.get(key)
        if prev is None:
            self.edges[key] = Edge(src, dst, 1, f"{where} ({fm_key(fm.fn)})",
                                   inverted)
        else:
            prev.count += 1
            prev.inverted = prev.inverted or inverted

    # -- reporting ---------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph muppet_lock_graph {",
                 '  rankdir=LR;',
                 '  node [shape=box, fontname="Helvetica"];']
        for name, value in sorted(self.levels.items(), key=lambda kv: kv[1]):
            if name == "kUnordered":
                continue
            lines.append(f'  "{name}" [label="{name}\\n{value}"];')
        for (src, dst), e in sorted(self.edges.items()):
            attrs = [f'label="{e.count}"']
            if e.inverted:
                attrs.append('color=red')
                attrs.append('penwidth=2')
            lines.append(f'  "{src}" -> "{dst}" [{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def fm_key(fn: FunctionInfo) -> str:
    return f"{fn.cls}::{fn.name}" if fn.cls else fn.name


def _bind_lambda_argument(lam: FunctionInfo, models: list[FuncModel]) -> None:
    """A lambda passed as a call argument (`SendRouted(to, e, [&] {...})`)
    is modelled as called at that call site, inside the innermost body
    that contains it, with that body's locks held there. Lambdas handed
    to a thread constructor or stored for later (`auto f = [..]`) are
    left as functions nothing calls: they do not run under the caller's
    locks."""
    call = _call_taking(lam.file.code, lam.intro)
    if call is None or DEFERRED_CALLEES.intersection(call):
        return
    parents = [fm for fm in models
               if fm.fn is not lam
               and fm.fn.body_start <= lam.intro < fm.fn.body_end]
    if not parents:
        return
    parent = max(parents, key=lambda fm: fm.fn.body_start)
    # Resolves through _candidate_keys to `<cls>::<lam.name>` = fm_key(lam).
    parent.calls.append((lam.intro, "", lam.name))


def _identifier_args(code: str, open_paren: int) -> list[str]:
    """The arguments of the call whose `(` is at `open_paren` that are
    bare identifiers."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                args = split_top_level(code[open_paren + 1:i])
                return [a for a in args if re.fullmatch(r"[A-Za-z_]\w*", a)]
    return []


def _call_taking(code: str, pos: int) -> tuple[str, ...] | None:
    """Name of the call whose argument list holds `pos`, with the type
    word before it when it is a declaration (`std::thread t(`), or None
    when `pos` is not inside a call (a statement or brace boundary comes
    first)."""
    depth = 0
    i = pos - 1
    while i >= 0:
        ch = code[i]
        if ch in ")]}":
            depth += 1
        elif ch in "([{":
            if depth > 0:
                depth -= 1
            elif ch != "(":
                return None
            else:
                m = re.search(r"(?:\b([A-Za-z_]\w*)\s+)?([A-Za-z_]\w*)\s*$",
                              code[max(0, i - 80):i])
                return tuple(g for g in m.groups() if g) if m else None
        elif ch == ";" and depth == 0:
            return None
        i -= 1
    return None


def _scope_end(body: str, guard_start: int) -> int:
    """Offset (within body) where the scope enclosing guard_start closes."""
    depth = 0
    for i in range(guard_start, len(body)):
        ch = body[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(body)


def _example_site(edge: Edge) -> tuple[str, int]:
    m = re.match(r"([^\s:]+):(\d+)", edge.example)
    if m:
        return m.group(1), int(m.group(2))
    return edge.example, 1


def compare_edges(graph: "LockGraphPass", path: str, rel: str
                  ) -> list[Finding]:
    """One finding (reported against `rel`) per edge the graph has that
    `path` does not list, and per listed edge the graph lacks. `path`
    holds one `kFrom -> kTo` per line; `#` starts a comment."""
    expected: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            src, _, dst = line.partition("->")
            expected.add((src.strip(), dst.strip()))
    found = set(graph.edges)
    out = []
    for src, dst in sorted(found - expected):
        out.append(Finding(CHECK, rel, 1,
                           f"new lock-graph edge {src} -> {dst} "
                           f"[at {graph.edges[(src, dst)].example}]; "
                           f"add it to the expected edges if it is real"))
    for src, dst in sorted(expected - found):
        out.append(Finding(CHECK, rel, 1,
                           f"expected lock-graph edge {src} -> {dst} is "
                           f"missing; remove it from the expected edges "
                           f"if the code no longer takes it"))
    return out


def run(files: list[SourceFile], dot_path: str | None = None
        ) -> tuple[list[Finding], "LockGraphPass"]:
    p = LockGraphPass(files)
    findings = p.run()
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as f:
            f.write(p.to_dot())
    return findings, p
