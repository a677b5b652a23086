"""Pass 5: unused options.

An options struct is the project's configuration surface: every field
is a knob a caller may set. A field that no caller ever assigns is not
a knob but a constant spelled as one, and it costs a reader the search
for who sets it. This pass flags every data member of a `struct
*Options` declared under src/{common,core,engine,kvstore,net,service,
apps} that nothing assigns anywhere in src/, tests/, bench/, examples/
or perfbench/.

An assignment is a write through a member access: `o.name = ...`,
`o->name += ...`, `o.name[i] = ...`, or a mutating container call such
as `o.name.push_back(...)`. Every member of the access chain counts, so
`opts.node.data_dir = ...` assigns both `node` and `data_dir`. A write
is credited to the struct the access goes through when the pass can
tell: the type of the member before it (`node.clock` is
NodeOptions::clock, not EngineOptions::clock), or the
declared type of the variable it starts from in the same file. When the
type is unknown (`auto`, a call result) the write counts for every field
of that name, so the pass errs toward silence, never toward a false
report.

src/testing and src/workload are out of scope: their options describe
test scenarios and input data, which a scenario table may set in bulk.
Static and constexpr members are constants already and are skipped.
A write under src/testing/ counts as a test's write: the scenario
runner sets only what its tests ask of it, so a field it sets is no
more a deployment knob than one a test sets.

A setter that only restates a default is flagged too: `o.name = V;`
where V is a constant (a number or integer expression, `true`/`false`,
`nullptr`, or a `Scope::kName` enumerator) equal to the field's declared
initializer. A field set only that way is a constant in disguise, and
the line costs the reader a check of the default. The setter counts
only when the pass knows which struct it writes, and a file that also
gives the same variable's field any other value (a reset after a change)
is left alone. Benchmark programs (bench/, perfbench/) are not checked
for this: they state the configuration a published row was measured
under in full, so the row does not move when a default does.

A field whose only writes are under tests/ or src/testing/ is flagged
too: no caller sets it, so it is a constant that tests vary, and a test
that needs another value should reach it through a seam that exists
anyway (a simulated clock, a direct call, more data). The one exception
is a field in TEST_ONLY below, whose entry names the behaviour a test
checks that no constant can reach. With --verbose the pass lists those
fields, with their reasons, as info lines.
"""

from __future__ import annotations

import os
import re

from cpp_model import Finding, SourceFile, parse_classes, walk_sources

CHECK = "options"

DECL_DIRS = tuple(f"src/{d}/" for d in (
    "common", "core", "engine", "kvstore", "net", "service", "apps"))
ASSIGN_ROOTS = ("src", "tests", "bench", "examples", "perfbench")
TEST_HARNESS = "src/testing/"  # its writes count as the root "tests"
PINNED_ROOTS = ("bench/", "perfbench/")  # may restate defaults

# Option fields only tests set, each kept for the behaviour its entry
# names. Keep this list short: every entry is a knob no deployment turns.
TEST_ONLY = {
    "SlateStoreOptions::column_family":
        "the application's column family (§4.2): two applications "
        "sharing one store keep their slates apart "
        "(SlateStoreTest.RowColumnLayoutMatchesPaper)",
    "EngineOptions::clock":
        "the engine's simulated-clock seam: drain waits advance a "
        "SimulatedClock instead of sleeping "
        "(DatapathTest.DrainWakesPromptlyOnSimulatedClock, DrainStressTest)",
    "TcpTransportOptions::clock":
        "a frozen clock holds the dialer's reconnect backoff, so only an "
        "inbound HELLO can redial "
        "(TcpTransportTest.InboundHelloCutsDialerBackoffShort)",
    "DurabilityOptions::sync_every_records":
        "a cadence of 1 below exactly-once pins lossless at-least-once "
        "replay after a crash "
        "(DurableEngine.Muppet2AtLeastOnceCrashRestartRestoresCounts)",
    "DurabilityOptions::checkpoint_every_records":
        "the recovery matrix's crash-during-checkpoint cells checkpoint "
        "every 4 records, so the crash races a manifest write "
        "(RecoveryMatrixTest, ChaosPropertyTest's recovery cells)",
}

# An optional root variable, a member-access chain (`.a.b`, `->a[i].b`),
# then an assignment operator (not `==`) or a mutating container call.
WRITE_RE = re.compile(
    r"(?:\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*)?"
    r"((?:(?:\.|->)\s*[A-Za-z_]\w*\s*(?:\[[^\]]*\]\s*)*)+)"
    r"(?:(?P<op>(?:[-+*/|&^]|<<|>>)?=)(?!=)|\.\s*(?:push_back|emplace_back|"
    r"push_front|emplace|insert|assign)\s*\()")
# The right-hand side of a plain assignment, up to its `;`.
RHS_RE = re.compile(r"([^;{}]*);")
NUMBER_RE = re.compile(r"(\d[\d']*(?:\.\d*)?(?:[eE][-+]?\d+)?)[uUlLfF]*")
NUMERIC_EXPR_RE = re.compile(r"[\d\s+\-*()<>]+")  # once numbers read 0
ENUMERATOR_RE = re.compile(r"(?:[A-Za-z_]\w*::)+k\w+")
MEMBER_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)")
TYPE_BEFORE_RE = re.compile(
    r"\b([A-Za-z_][\w:]*)\s*(?:<[^;{}()]*>)?\s*[&*]*\s*$")
NOT_TYPES = {"return", "else", "case", "new", "delete", "throw", "const",
             "co_return", "sizeof", "typename"}


def _root(rel: str) -> str:
    """The root a write in file `rel` is credited to."""
    return "tests" if rel.startswith(TEST_HARNESS) else rel.split("/")[0]


def _value_type(type_text: str) -> str:
    """`std::vector<SloObjective>` -> SloObjective, `const Foo*` -> Foo."""
    m = re.search(r"<\s*(?:const\s+)?([\w:]+)", type_text)
    t = m.group(1) if m else type_text
    t = re.sub(r"[<>*&\s\[].*$", "", t.strip())
    return t.split("::")[-1]


class _Writes:
    """(struct, field) pairs some file writes; struct None = unknown."""

    def __init__(self, scan: list[SourceFile]) -> None:
        self.classes: set[str] = set()
        self.member_types: dict[str, set[str]] = {}
        for sf in scan:
            for ci in parse_classes(sf):
                self.classes.add(ci.name)
                for f in ci.fields:
                    self.member_types.setdefault(f.name, set()).add(
                        _value_type(f.type_text))
        # (struct, field) -> top-level roots of the files that write it.
        self.pairs: dict[tuple[str | None, str], set[str]] = {}
        # Plain assignments whose owner struct is known:
        # (file, line, owner, field, access chain, right-hand side).
        self.setters: list[tuple[SourceFile, int, str, str, str, str]] = []
        for sf in scan:
            var_types: dict[str | None, set[str | None]] = {}
            for m in WRITE_RE.finditer(sf.code):
                var = m.group(1)
                if var not in var_types:
                    var_types[var] = self._var_types(sf, var)
                owners = var_types[var]
                for name in MEMBER_RE.findall(m.group(2)):
                    last_owners = owners
                    for owner in owners:
                        self.pairs.setdefault((owner, name), set()).add(
                            _root(sf.rel))
                    owners = self._known(self.member_types.get(name, set()))
                rhs = RHS_RE.match(sf.code, m.end())
                if m.group("op") == "=" and rhs and None not in last_owners:
                    chain = (var or "") + re.sub(r"\s+", "", m.group(2))
                    for owner in last_owners:
                        self.setters.append((sf, sf.line_of(m.start()), owner,
                                             name, chain, rhs.group(1)))

    def _known(self, types: set[str]) -> set[str | None]:
        if not types or any(t not in self.classes for t in types):
            return {None}
        return set(types)

    def _var_types(self, sf: SourceFile, var: str | None) -> set[str | None]:
        if not var:
            return {None}
        # Declarations: `Type var`, `const Type<..>& var`, `Type* var`.
        types = set()
        for m in re.finditer(r"\b" + re.escape(var) + r"\s*(?:[;=,(){}:]|\[)",
                             sf.code):
            tm = TYPE_BEFORE_RE.search(sf.code, max(0, m.start() - 160),
                                       m.start())
            if tm:
                types.add(_value_type(tm.group(1)))
        types -= NOT_TYPES
        return self._known(types)

    def roots(self, struct: str, name: str) -> set[str]:
        """Top-level roots whose files write the field (empty: none)."""
        return (self.pairs.get((struct, name), set())
                | self.pairs.get((None, name), set()))


def _constant(text: str) -> str | float | None:
    """The value of a constant expression, or None if it is not one."""
    t = text.strip()
    if t.startswith("{") and t.endswith("}"):
        t = t[1:-1].strip()
    if t in ("true", "false", "nullptr") or ENUMERATOR_RE.fullmatch(t):
        return t
    if not t or not NUMERIC_EXPR_RE.fullmatch(NUMBER_RE.sub("0", t)):
        return None
    expr = NUMBER_RE.sub(lambda m: m.group(1).replace("'", ""), t)
    try:
        value = eval(expr, {"__builtins__": {}}, {})  # digits and operators
    except (SyntaxError, TypeError, ValueError, ArithmeticError):
        return None
    return float(value) if isinstance(value, (int, float)) else None


def _default_setters(writes: _Writes, structs) -> list[Finding]:
    defaults = {}
    for ci in structs:
        for f in ci.fields:
            if not (f.is_static or f.is_constexpr):
                value = _constant(f.init_text)
                if value is not None:
                    defaults[(ci.name, f.name)] = value
    # Each (file, access chain)'s right-hand sides: a chain that is also
    # given another value in the same file is a reset, not a restatement.
    values: dict[tuple[str, str], set] = {}
    for sf, _, _, _, chain, rhs in writes.setters:
        values.setdefault((sf.rel, chain), set()).add(_constant(rhs))
    findings = []
    for sf, line, owner, name, chain, rhs in writes.setters:
        default = defaults.get((owner, name))
        if (default is None or sf.rel.startswith(PINNED_ROOTS)
                or values[(sf.rel, chain)] != {default}):
            continue
        if sf.allows(CHECK, line):
            continue
        findings.append(Finding(
            CHECK, sf.rel, line,
            f"{owner}::{name} is set to its default ({rhs.strip()}); "
            f"delete the setter"))
    return findings


def run(files: list[SourceFile], root: str,
        notes: list[str]) -> list[Finding]:
    """Findings for unset fields, fields only tests set and default
    setters; appends one line to `notes` per field TEST_ONLY keeps."""
    findings: list[Finding] = []
    structs = []
    for sf in files:
        if not sf.rel.startswith(DECL_DIRS):
            continue
        for ci in parse_classes(sf):
            if ci.kind == "struct" and ci.name.endswith("Options"):
                structs.append(ci)
    if not structs:
        return findings
    seen = {sf.rel for sf in files}
    scan = list(files) + [
        sf for sf in walk_sources(os.path.abspath(root), subdirs=ASSIGN_ROOTS)
        if sf.rel not in seen]
    writes = _Writes(scan)
    for ci in structs:
        for f in ci.fields:
            if f.is_static or f.is_constexpr:
                continue
            roots = writes.roots(ci.name, f.name)
            name = f"{ci.qualified}::{f.name}"
            if roots == {"tests"}:
                where = f"{ci.file.rel}:{f.line}: {name}"
                if name in TEST_ONLY:
                    notes.append(f"{where} is written only under tests/ or "
                                 f"src/testing/ (kept: {TEST_ONLY[name]})")
                    continue
                findings.append(Finding(
                    CHECK, ci.file.rel, f.line,
                    f"{name} is written only under tests/ or src/testing/; "
                    f"make it a named constant at its point of use, or name "
                    f"the behaviour its test needs in options.py's TEST_ONLY"))
                continue
            if roots or ci.file.allows(CHECK, f.line):
                continue
            findings.append(Finding(
                CHECK, ci.file.rel, f.line,
                f"{name} is never assigned in "
                f"{', '.join(ASSIGN_ROOTS)}; make it a named constant "
                f"at its point of use, or set it where it matters"))
    return findings + _default_setters(writes, structs)
