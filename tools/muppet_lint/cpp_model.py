"""Lightweight C++ source model for muppet-lint.

This is not a C++ parser; it is a project-shaped lexer that understands
exactly the idioms this codebase enforces elsewhere (Google style,
annotated sync wrappers, brace-initialized members, Encode/Decode free
functions). Every pass consumes the same model:

  * SourceFile     -- raw text, comment/string-stripped text, line map,
                      `// muppet-lint: allow(check): why` suppressions
  * ClassInfo      -- name, bases, member fields (with annotations),
                      source range
  * FunctionInfo   -- qualified name, enclosing class, body range,
                      REQUIRES/EXCLUDES annotations from the matching
                      header declaration

The model intentionally over-approximates in places (lambda bodies are
split out as pseudo-functions; unresolvable mutex expressions are
reported, not guessed). When the optional libclang frontend is present
it cross-validates the class/field tables; see clang_frontend.py.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Findings and suppressions
# --------------------------------------------------------------------------

@dataclass
class Finding:
    check: str          # "lock-graph" | "wire" | "determinism" | "guarded" | "suppression"
    path: str           # repo-relative path
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# `// muppet-lint: allow(check): justification` or allow(a, b): ...
SUPPRESS_RE = re.compile(
    r"muppet-lint:\s*allow\(\s*([a-z][a-z\-]*(?:\s*,\s*[a-z][a-z\-]*)*)\s*\)"
    r"(?:\s*:\s*(.*\S))?")

KNOWN_CHECKS = {"lock-graph", "wire", "determinism", "guarded", "options"}


class Suppressions:
    """Per-file suppression table.

    A suppression covers the line it appears on; when the marker is on a
    line whose stripped code is blank (a comment-only line), it also
    covers the next line, so block-comment style

        // muppet-lint: allow(guarded): written once before Start()
        int knob_ = 0;

    works. A marker without a justification is itself a finding.
    """

    def __init__(self) -> None:
        self.by_line: dict[int, set[str]] = {}
        self.malformed: list[tuple[int, str]] = []
        self.used: set[tuple[int, str]] = set()

    def add(self, line: int, checks: set[str], covers_next: bool) -> None:
        self.by_line.setdefault(line, set()).update(checks)
        if covers_next:
            self.by_line.setdefault(line + 1, set()).update(checks)

    def allows(self, check: str, line: int) -> bool:
        if check in self.by_line.get(line, ()):  # noqa: SIM103
            self.used.add((line, check))
            return True
        return False


class SourceFile:
    def __init__(self, root: str, rel: str) -> None:
        self.rel = rel.replace(os.sep, "/")
        self.path = os.path.join(root, rel)
        with open(self.path, encoding="utf-8") as f:
            self.text = f.read()
        self.code = strip_comments_and_strings(self.text)
        # Offsets of line starts, for offset -> line translation.
        self._line_starts = [0]
        for i, ch in enumerate(self.text):
            if ch == "\n":
                self._line_starts.append(i + 1)
        self.suppressions = self._scan_suppressions()

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self._line_starts, offset)

    def line_text(self, line: int) -> str:
        start = self._line_starts[line - 1]
        end = (self._line_starts[line] - 1
               if line < len(self._line_starts) else len(self.text))
        return self.text[start:end]

    def code_line(self, line: int) -> str:
        start = self._line_starts[line - 1]
        end = (self._line_starts[line] - 1
               if line < len(self._line_starts) else len(self.code))
        return self.code[start:end]

    def _scan_suppressions(self) -> Suppressions:
        sup = Suppressions()
        for lineno in range(1, len(self._line_starts) + 1):
            raw = self.line_text(lineno)
            m = SUPPRESS_RE.search(raw)
            if not m:
                continue
            checks = {c.strip() for c in m.group(1).split(",")}
            justification = m.group(2)
            if not justification:
                sup.malformed.append(
                    (lineno, "suppression is missing its justification "
                             "(write `// muppet-lint: allow(check): why`)"))
                continue
            unknown = checks - KNOWN_CHECKS
            if unknown:
                sup.malformed.append(
                    (lineno, f"suppression names unknown check(s) "
                             f"{sorted(unknown)}; known: "
                             f"{sorted(KNOWN_CHECKS)}"))
                checks &= KNOWN_CHECKS
            comment_only = not self.code_line(lineno).strip()
            sup.add(lineno, checks, covers_next=comment_only)
        return sup

    def allows(self, check: str, line: int) -> bool:
        return self.suppressions.allows(check, line)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents.

    Newlines are preserved so offsets and line numbers stay aligned with
    the original text. String literal quotes are kept (the content is
    blanked) so regexes never match inside literals. Handles //, /* */,
    raw strings R"delim(...)delim", and digit separators (1'000'000).
    """
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == '"':
            # Raw string?  Look back for R / u8R / LR / uR / UR.
            is_raw = False
            k = i - 1
            prefix = ""
            while k >= 0 and text[k].isalnum():
                prefix = text[k] + prefix
                k -= 1
                if len(prefix) > 3:
                    break
            if prefix.endswith("R") and len(prefix) <= 3:
                is_raw = True
            if is_raw:
                close_paren = text.find("(", i)
                delim = text[i + 1:close_paren]
                terminator = ")" + delim + '"'
                j = text.find(terminator, close_paren + 1)
                j = n if j < 0 else j + len(terminator)
                blank(i + 1, j - 1)
                i = j
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                blank(i + 1, j - 1)
                i = j
        elif c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isdigit() and nxt and (nxt.isdigit() or
                                           nxt in "abcdefABCDEF"):
                i += 1  # digit separator, e.g. 1'000'000
                continue
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def match_brace(code: str, open_idx: int) -> int:
    """Index just past the `}` matching code[open_idx] == `{` (or len)."""
    depth = 0
    for i in range(open_idx, len(code)):
        ch = code[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def split_top_level(args: str) -> list[str]:
    """Split an argument list on commas outside (), <>, {}, []."""
    parts, depth, cur = [], 0, []
    prev = ""
    for ch in args:
        if ch in "(<[{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == ">" and prev != "-":  # `->` is not a closing angle
            depth -= 1
        prev = ch
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


# --------------------------------------------------------------------------
# Class / member model
# --------------------------------------------------------------------------

ANNOTATION_NAMES = (
    "MUPPET_GUARDED_BY", "MUPPET_PT_GUARDED_BY", "MUPPET_ACQUIRED_BEFORE",
    "MUPPET_ACQUIRED_AFTER", "MUPPET_REQUIRES", "MUPPET_REQUIRES_SHARED",
    "MUPPET_EXCLUDES", "MUPPET_ACQUIRE", "MUPPET_ACQUIRE_SHARED",
    "MUPPET_RELEASE", "MUPPET_RELEASE_SHARED", "MUPPET_RELEASE_GENERIC",
    "MUPPET_TRY_ACQUIRE", "MUPPET_TRY_ACQUIRE_SHARED",
    "MUPPET_RETURN_CAPABILITY", "MUPPET_ASSERT_CAPABILITY",
)

ANNOT_RE = re.compile(
    r"\b(" + "|".join(ANNOTATION_NAMES) + r")\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)")


@dataclass
class MemberField:
    name: str
    type_text: str       # declaration text minus the name
    line: int
    is_static: bool
    is_mutable: bool
    is_const: bool
    is_constexpr: bool
    annotations: list[tuple[str, str]]  # (macro, args)
    init_text: str       # brace/equals initializer text ("" if none)
    array: bool

    def annotation(self, *names: str) -> str | None:
        for macro, args in self.annotations:
            if macro in names:
                return args
        return None


@dataclass
class ClassInfo:
    name: str            # unqualified
    kind: str            # "class" | "struct"
    bases: list[str]
    file: SourceFile
    start: int           # offset of the `class` keyword
    body_start: int      # offset just past `{`
    body_end: int        # offset of closing `}`
    line: int
    fields: list[MemberField] = field(default_factory=list)
    enclosing: str = ""  # name of enclosing class for nested types

    @property
    def qualified(self) -> str:
        return f"{self.enclosing}::{self.name}" if self.enclosing else self.name

    def field_named(self, name: str) -> MemberField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


CLASS_RE = re.compile(
    r"\b(?P<kind>class|struct)\s+(?:MUPPET_\w+(?:\([^()]*\))?\s+)?"
    r"(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?P<bases>:\s*[^{;]*)?\{")

FIELD_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*$")

KEYWORD_STATEMENTS = (
    "using", "typedef", "friend", "static_assert", "template", "public",
    "private", "protected", "enum", "explicit", "operator", "return",
)


def parse_classes(sf: SourceFile) -> list[ClassInfo]:
    """All class/struct definitions in a file, including nested ones."""
    classes: list[ClassInfo] = []
    _parse_classes_in(sf, 0, len(sf.code), "", classes)
    return classes


def _parse_classes_in(sf: SourceFile, start: int, end: int,
                      enclosing: str, out: list[ClassInfo]) -> None:
    code = sf.code
    pos = start
    while pos < end:
        m = CLASS_RE.search(code, pos, end)
        if not m:
            return
        # Skip `enum class`.
        before = code[max(0, m.start() - 8):m.start()]
        if re.search(r"\benum\s*$", before):
            pos = m.end()
            continue
        body_open = m.end() - 1
        body_close = match_brace(code, body_open) - 1
        info = ClassInfo(
            name=m.group("name"), kind=m.group("kind"),
            bases=[b.strip().split()[-1] for b in
                   split_top_level((m.group("bases") or ":")[1:])]
            if m.group("bases") else [],
            file=sf, start=m.start(), body_start=body_open + 1,
            body_end=body_close, line=sf.line_of(m.start()))
        info.enclosing = enclosing
        _parse_members(sf, info, out)
        out.append(info)
        pos = body_close + 1


def _parse_members(sf: SourceFile, info: ClassInfo,
                   out: list[ClassInfo]) -> None:
    """Split the class body into top-level statements; record fields and
    recurse into nested classes."""
    code = sf.code
    i = info.body_start
    stmt_start = i
    while i < info.body_end:
        ch = code[i]
        if ch == "{":
            close = match_brace(code, i)
            head = code[stmt_start:i]
            cm = CLASS_RE.search(code, stmt_start, i + 1)
            if cm and cm.end() - 1 == i and not re.search(
                    r"\benum\s+(class\s+)?\w*\s*$", code[stmt_start:cm.start()]):
                _parse_classes_in(sf, stmt_start, close, info.name, out)
                # Nested class: the statement ends at its `};`.
                i = close
                if i < info.body_end and code[i] == ";":
                    i += 1
                stmt_start = i
                continue
            if "(" in head or re.search(r"\benum\b", head):
                # Function body / enum body: skip it; the statement ends
                # here (optionally followed by `;`).
                i = close
                if i < info.body_end and code[i] == ";":
                    i += 1
                stmt_start = i
                continue
            # Brace initializer of a member: part of the statement.
            i = close
            continue
        if ch == ":" and re.search(r"\b(public|private|protected)\s*$",
                                   code[stmt_start:i]):
            i += 1
            stmt_start = i
            continue
        if ch == ";":
            stmt = code[stmt_start:i]
            f = _parse_field(sf, stmt, stmt_start)
            if f is not None:
                info.fields.append(f)
            i += 1
            stmt_start = i
            continue
        i += 1


def _parse_field(sf: SourceFile, stmt: str,
                 stmt_offset: int) -> MemberField | None:
    text = stmt.strip()
    if not text:
        return None
    first_word = re.match(r"[A-Za-z_]\w*", text)
    if first_word and first_word.group(0) in KEYWORD_STATEMENTS:
        return None
    annotations = [(m.group(1), m.group(2).strip())
                   for m in ANNOT_RE.finditer(text)]
    bare = ANNOT_RE.sub(" ", text)
    # Strip the initializer: `= ...` or a trailing `{...}` group.
    init = ""
    eq = _top_level_find(bare, "=")
    if eq >= 0:
        init = bare[eq + 1:].strip()
        bare = bare[:eq]
    else:
        bm = _trailing_brace_group(bare)
        if bm is not None:
            init = bm[1]
            bare = bm[0]
    bare = bare.strip()
    if not bare or "(" in bare or ")" in bare:
        return None  # method declaration, ctor, function pointer, ...
    qualifiers = {"static": False, "mutable": False, "constexpr": False,
                  "inline": False, "const": False}
    tokens = bare.split()
    while tokens and tokens[0] in qualifiers:
        qualifiers[tokens[0]] = True
        tokens.pop(0)
    if tokens and tokens[0] == "const":
        qualifiers["const"] = True
        tokens.pop(0)
    bare = " ".join(tokens)
    nm = FIELD_NAME_RE.search(bare)
    if not nm:
        return None
    name = nm.group(1)
    if name == "operator":
        return None  # `T& operator=(...) = delete;` is not a field
    type_text = bare[:nm.start()].strip()
    if not type_text:
        return None  # a lone identifier is not a declaration
    line = sf.line_of(stmt_offset + stmt.find(name.split("[")[0]))
    # `const` embedded at the top level of the type (e.g. `const LockLevel x`)
    # was popped above; `std::vector<const T*>` stays non-const.
    return MemberField(
        name=name, type_text=type_text, line=line,
        is_static=qualifiers["static"], is_mutable=qualifiers["mutable"],
        is_const=qualifiers["const"], is_constexpr=qualifiers["constexpr"],
        annotations=annotations, init_text=init,
        array=nm.group(2) is not None)


def _top_level_find(text: str, needle: str) -> int:
    depth = 0
    for i, ch in enumerate(text):
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        elif ch == needle and depth == 0:
            # Reject ==, <=, >=, != around the match.
            if needle == "=" and (
                    (i > 0 and text[i - 1] in "=<>!+-*/|&^") or
                    (i + 1 < len(text) and text[i + 1] == "=")):
                continue
            return i
    return -1


def _trailing_brace_group(text: str) -> tuple[str, str] | None:
    t = text.rstrip()
    if not t.endswith("}"):
        return None
    depth = 0
    for i in range(len(t) - 1, -1, -1):
        if t[i] == "}":
            depth += 1
        elif t[i] == "{":
            depth -= 1
            if depth == 0:
                return t[:i], t[i + 1:len(t) - 1].strip()
    return None


# --------------------------------------------------------------------------
# Function model
# --------------------------------------------------------------------------

@dataclass
class FunctionInfo:
    name: str            # unqualified function/method name
    cls: str             # enclosing class name ("" for free functions)
    file: SourceFile
    body_start: int      # offset just past `{`
    body_end: int        # offset of closing `}`
    line: int
    header_text: str     # text between name and body (args + qualifiers)
    is_lambda: bool = False
    intro: int = -1      # lambdas: offset of the `[` that opens them

    @property
    def key(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


FUNC_HEAD_RE = re.compile(
    r"(?<![\w.>])"                               # not obj.Foo( / ptr->Foo(
    r"((?:[A-Za-z_]\w*::)*)"                     # qualifier
    r"(~?[A-Za-z_]\w*|operator\s*[^\s(]{1,3})"   # name
    r"\s*\(")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "alignof", "decltype", "static_assert", "assert",
    "defined", "co_await", "co_return",
}


def parse_functions(sf: SourceFile,
                    classes: list[ClassInfo]) -> list[FunctionInfo]:
    """Function definitions with bodies (free, methods, out-of-line).

    Lambdas inside bodies are extracted as separate pseudo-functions and
    their text blanked from the enclosing body, so that locks taken on a
    worker thread are not attributed to the spawning function's scope.
    """
    funcs: list[FunctionInfo] = []
    code = sf.code
    class_ranges = [(c.body_start, c.body_end, c.name) for c in classes]

    pos = 0
    n = len(code)
    while pos < n:
        m = FUNC_HEAD_RE.search(code, pos)
        if not m:
            break
        name = m.group(2).replace(" ", "")
        if name in CONTROL_KEYWORDS or name.startswith("MUPPET_"):
            pos = m.end()
            continue
        args_open = m.end() - 1
        args_close = _match_paren(code, args_open)
        if args_close < 0:
            pos = m.end()
            continue
        body_open = _find_body_after(code, args_close + 1)
        if body_open is None:
            pos = m.end()
            continue
        body_close = match_brace(code, body_open) - 1
        qual = m.group(1).rstrip(":")
        cls = qual.split("::")[-1] if qual else ""
        if not cls:
            for cs, ce, cname in class_ranges:
                if cs <= m.start() < ce:
                    cls = cname
                    break
        funcs.append(FunctionInfo(
            name=name, cls=cls, file=sf, body_start=body_open + 1,
            body_end=body_close, line=sf.line_of(m.start()),
            header_text=code[args_open:body_open]))
        # Continue scanning *inside* the body too: nested class methods
        # were already captured by the class walk; lambdas are handled by
        # the caller via extract_lambdas. Move past the header only.
        pos = body_open + 1
    return _dedupe_functions(funcs)


def _dedupe_functions(funcs: list[FunctionInfo]) -> list[FunctionInfo]:
    seen: set[tuple[int, int]] = set()
    out = []
    for f in funcs:
        span = (f.body_start, f.body_end)
        if span in seen:
            continue
        seen.add(span)
        out.append(f)
    return out


def _match_paren(code: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(code)):
        ch = code[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


QUALIFIER_TOKEN_RE = re.compile(
    r"\s*(const|noexcept|override|final|mutable|->\s*[\w:<>,\s*&]+|"
    + "|".join(ANNOTATION_NAMES) + r")\b")


def _find_body_after(code: str, pos: int) -> int | None:
    """After an argument list, skip qualifiers / annotations / ctor init
    lists; return the offset of the opening `{` of a definition, or None
    when this is only a declaration (`;`) or something else."""
    i = pos
    n = len(code)
    while i < n:
        ch = code[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "{":
            return i
        if ch == ";":
            return None
        if ch == ":":
            # ctor init list: scan forward over `name(init)` / `name{init}`
            # groups until `{` at depth 0.
            i += 1
            depth = 0
            while i < n:
                c = code[i]
                if c in "([":
                    depth += 1
                elif c in ")]":
                    depth -= 1
                elif c == "{" and depth == 0:
                    # Either a member brace-init or the body. A body `{`
                    # follows a `)`/`}` + whitespace or the `:` directly
                    # after an identifier... distinguish by looking back:
                    # member init `name{` has an identifier immediately
                    # before; body `{` follows `)` or `}` or `,`-less end.
                    k = i - 1
                    while k >= 0 and code[k].isspace():
                        k -= 1
                    if k >= 0 and (code[k].isalnum() or code[k] == "_"):
                        close = match_brace(code, i)
                        i = close
                        continue
                    return i
                elif c == ";" and depth == 0:
                    return None
                i += 1
            return None
        m = QUALIFIER_TOKEN_RE.match(code, i)
        if m:
            i = m.end()
            # Skip a following (...) group (annotation args, noexcept(..)).
            j = i
            while j < n and code[j].isspace():
                j += 1
            if j < n and code[j] == "(":
                i = _match_paren(code, j) + 1
            continue
        if ch == "=":
            return None  # `= default`, `= delete`, or an initializer
        return None
    return None


LAMBDA_RE = re.compile(r"\[[^\[\]]*\]\s*(\([^()]*(?:\([^()]*\)[^()]*)*\))?"
                       r"\s*(mutable\s*)?(->\s*[\w:<>,\s*&]+\s*)?\{")


def extract_lambdas(sf: SourceFile, fn: FunctionInfo,
                    counter: list[int]) -> tuple[str, list[FunctionInfo]]:
    """Return fn's body text with lambda bodies blanked, plus one
    pseudo-FunctionInfo per lambda (named <fn>::lambda#N)."""
    body = sf.code[fn.body_start:fn.body_end]
    lambdas: list[FunctionInfo] = []
    out = list(body)

    def scan(text_start: int, text_end: int) -> None:
        i = text_start
        while i < text_end:
            m = LAMBDA_RE.search(sf.code, i, text_end)
            if not m:
                return
            # Heuristic guard: `[` after an identifier is array indexing.
            k = m.start() - 1
            while k >= 0 and sf.code[k].isspace():
                k -= 1
            if k >= 0 and (sf.code[k].isalnum() or sf.code[k] in "_)]"):
                i = m.start() + 1
                continue
            body_open = m.end() - 1
            body_close = match_brace(sf.code, body_open) - 1
            counter[0] += 1
            lam = FunctionInfo(
                name=f"{fn.name}::lambda#{counter[0]}", cls=fn.cls,
                file=sf, body_start=body_open + 1, body_end=body_close,
                line=sf.line_of(m.start()), header_text="", is_lambda=True,
                intro=m.start())
            lambdas.append(lam)
            for j in range(body_open + 1 - fn.body_start,
                           body_close - fn.body_start):
                if 0 <= j < len(out) and out[j] != "\n":
                    out[j] = " "
            scan(body_open + 1, body_close)  # nested lambdas
            i = body_close + 1

    scan(fn.body_start, fn.body_end)
    return "".join(out), lambdas


# --------------------------------------------------------------------------
# Repo walking
# --------------------------------------------------------------------------

def walk_sources(root: str, subdirs: tuple[str, ...] = ("src",),
                 exts: tuple[str, ...] = (".h", ".cc")) -> list[SourceFile]:
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith(exts):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(SourceFile(root, rel))
    return files
