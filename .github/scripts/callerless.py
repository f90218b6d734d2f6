#!/usr/bin/env python3
"""Caller-less scan: every `pub fn` under crates/*/src must be called from
a non-test line of some crate, binary, bench, example or the benchmark
harness, or be on the allowlist of references and seams ROADMAP lists
(each says in its doc comment which tests compare against it).

A use is the name followed by `(` or `::<` (a call), or reached through
`::` (a function passed by path) — outside comments, `pub use`
re-exports, the body of every `pub fn` of that name (a function does not
vouch for itself, nor does a same-named call it wraps, such as an `i64`
method inside a `Money` one) and everything from a file's first
`#[cfg(test)]` on. A method (an indented `pub fn`) is used only as
`.name(`, `.name::<` or `::name`: a bare `name(` reaches a free function
or a local closure, never a method. A bare `.name` is a field read, not
a use: `self.risk` vouches for no `pub fn risk`. Since the scan and
CI's non-test line count both stop at a file's first `#[cfg(test)]`, a
non-test item after it would go unseen by both, so the scan fails on
one. Both also skip every `*_tests.rs` file, so a `#[cfg(test)] mod x;`
whose file is not named so would be read as product code: the scan
fails on one too. The scan is by name, not by item: two functions
of one name vouch for each other, so every name two or more `pub fn`s
share is on SHADOWED, checked definition by definition (which type's
method each non-test call resolves to). A newly shared name fails the
scan until it is checked and listed; a listed name no longer shared
fails too.

Two more item classes are held to non-test use, by name as well. A `pub
const` or `pub static` (an associated one included) is used where a
non-test line other than a definition names it. A variant of a `pub
enum` is used where a non-test line constructs it as `Enum::Variant` or
`Self::Variant`: a `match` arm's pattern, a `|` alternative and the
patterns of `matches!`, `if let` and `while let` only read one.
"""
import glob
import re
import sys

ALLOWED = {
    # slow references the identity tests compare the fast paths against
    "reference_evaluate", "churn_chain", "random_sparse_problem", "with_tied_times",
    "paper_like_problem",
    "refine", "identity", "IDENTITY", "table_from_csv", "to_sorted_rows",
    # counter seams the counter-pinned tests read
    "scoped", "local_delta", "rebase", "delta",
    # read-outs and constructors only tests reach: the meter's from-base
    # build count, reservation-derived pool terms
    "base_builds", "reserved",
    # lattice-order duals the order tests hold `covers` / `lca` / `children` to
    "strictly_covers", "meet", "apex", "parents",
    # the paper's vocabulary: the raw MV3 mix; the rest until calibration
    # feeds the planner (direction 3)
    "tradeoff", "record_transfer_in", "query_charge", "view_charge",
    # shape accessors and a filter shorthand only tests and doc tests read
    "dimensions", "num_cuboids", "eq",
}

SHADOWED = {
    # every definition has a non-test caller
    "add", "all", "as_str", "baseline", "build", "candidates", "catalog", "compute", "cost",
    "drift", "empty", "execute", "feasible", "get", "heap_bytes", "hours", "label", "len",
    "levels", "min", "name", "new", "objective", "problem", "rank", "record",
    "render", "row", "saturating_sub", "scale", "scale_rates", "score",
    "selection", "set", "solve", "spill", "timeline_csv", "to_json", "total",
    "validate", "value", "with_selection",
    # `len`'s companions (clippy's len_without_is_empty); no non-test caller
    "is_empty",
}


MOD_DECL = re.compile(r"\s*(?:pub(?:\([\w:]+\))?\s+)?mod\s+(\w+)\s*;")
PATH_ATTR = re.compile(r'\s*#\[path\s*=\s*"([^"]+)"\]')


def misnamed_test_modules(path):
    """Line numbers of the `#[cfg(test)] mod x;` declarations in one file
    whose module file is not `*_tests.rs` (`x.rs`, or the file a
    `#[path]` names): the scan and the CI line count read such a file as
    product code."""
    found, gated, named = [], False, None
    for n, line in enumerate(open(path, encoding="utf-8"), 1):
        if "#[cfg(test)]" in line:
            gated, named = True, None
            line = line.split("#[cfg(test)]", 1)[1]
            if not line.strip():
                continue
        if not gated:
            continue
        attr = PATH_ATTR.match(line)
        if attr:
            named = attr.group(1)
            continue
        if line.lstrip().startswith("#["):
            continue
        decl = MOD_DECL.match(line)
        if decl and not (named or f"{decl.group(1)}.rs").endswith("_tests.rs"):
            found.append(n)
        gated = False
    return found


ITEM = re.compile(
    r"(?:pub(?:\([\w:]+\))?\s+)?"
    r"(?:fn|mod|use|impl|struct|enum|trait|type|const|static|macro_rules!)\b"
)


def hidden_items(path):
    """Line numbers of the non-test items a file's first `#[cfg(test)]`
    hides: top-level items after it that no `#[cfg(test)]` gates, or the
    attribute itself when it is not top-level (it hides the rest of its
    own item)."""
    found, seen, gated = [], False, False
    for n, line in enumerate(open(path, encoding="utf-8"), 1):
        if "#[cfg(test)]" in line:
            if not seen and line[0].isspace():
                found.append(n)
            seen = gated = True
        elif seen and ITEM.match(line):
            if not gated:
                found.append(n)
            gated = False
    return found


DEF = re.compile(r"(\s*)pub (?:const )?fn (\w+)")


def code_lines(path):
    """Non-test, non-comment, non-`pub use` lines of one source file, each
    with the names of the `pub fn`s whose definition holds it (a body
    runs to the first `}` at its `pub fn`'s indentation)."""
    out, in_use, bodies = [], False, []
    for line in open(path, encoding="utf-8"):
        if "#[cfg(test)]" in line:
            break
        line = line.split("//")[0]
        if in_use or re.match(r"\s*pub use\b", line):
            in_use = ";" not in line
            continue
        m = DEF.match(line)
        one_line = m and "{" in line and line.count("{") == line.count("}")
        if m and not one_line:
            bodies.append((m.group(1) + "}", m.group(2)))
        out.append((line, {name for _, name in bodies} | ({m.group(2)} if m else set())))
        if bodies and line.rstrip() == bodies[-1][0]:
            bodies.pop()
    return out


def sources(*patterns):
    return sorted(
        f for p in patterns for f in glob.glob(p, recursive=True) if not f.endswith("_tests.rs")
    )


defined, count, free = {}, {}, set()
for path in sources("crates/*/src/**/*.rs"):
    for line, _ in code_lines(path):
        m = DEF.match(line)
        if m:
            defined.setdefault(m.group(2), path)
            count[m.group(2)] = count.get(m.group(2), 0) + 1
            if not m.group(1):
                free.add(m.group(2))

code = [
    line
    for path in sources(
        "crates/*/src/**/*.rs", "crates/*/benches/**/*.rs", "examples/**/*.rs",
        "src/**/*.rs", "benchmark/src/**/*.rs",
    )
    for line in code_lines(path)
]


def used(name):
    """Whether any line outside the bodies of `name`'s own definitions
    uses it: as a call (a bare one only if some definition is free, not
    a method) or a path."""
    call = rf"(?<!fn )\b{name}" if name in free else rf"\.{name}"
    text = "".join(line for line, owners in code if name not in owners)
    return re.search(rf"{call}\s*(?:\(|::<)|::\s*{name}\b", text) is not None


CONST = re.compile(r"\s*pub (?:const|static) (?!fn\b)(\w+)\s*:")
ENUM = re.compile(r"(\s*)pub enum (\w+)")
VARIANT = re.compile(r"\s*([A-Z]\w*)\b")


def enum_variants(path):
    """`Enum::Variant` names of one file's non-test `pub enum`s: a body
    runs to the first `}` at its `pub enum`'s indentation, and a variant
    is a name at the body's first nesting level."""
    out, enum, depth = [], None, 0
    for line, _ in code_lines(path):
        if enum is None:
            m = ENUM.match(line)
            if m:
                enum, close = m.group(2), m.group(1) + "}"
            continue
        if line.rstrip() == close:
            enum = None
            continue
        m = VARIANT.match(line)
        if depth == 0 and m:
            out.append(f"{enum}::{m.group(1)}")
        depth += sum(map(line.count, "({[")) - sum(map(line.count, ")}]"))
    return out


def group_end(text, i):
    """Index just past the bracket group that opens at `text[i]`."""
    depth = 0
    for j in range(i, len(text)):
        depth += (text[j] in "({[") - (text[j] in ")}]")
        if depth == 0:
            return j + 1
    return len(text)


code_text = "\n".join(line.rstrip("\n") for line, _ in code)
# Spans that hold only patterns: a `matches!(…)` and an `if let` /
# `while let` pattern (up to its `=`).
patterns = [(m.start(), group_end(code_text, m.end() - 1))
            for m in re.finditer(r"matches!\s*\(", code_text)]
BIND = re.compile(r"(?<![=!<>])=(?![=>])")
patterns += [(m.start(), BIND.search(code_text, m.end()).start())
             for m in re.finditer(r"\b(?:if|while)\s+let\b", code_text)]
# A closure's parameter list (`|e|`, `||`), which a `|` alternative is not.
CLOSURE = re.compile(r"\|(?:[\w\s,&()]|:(?!:))*\|\s*$")


def constructed(variant):
    """Whether a non-test line builds `Enum::Variant` (or `Self::Variant`)
    outside a pattern: not in a `matches!` or an `if let` / `while let`,
    not a `|` alternative, and not a `match` arm (followed, past its
    payload, by `=>`, `|` or a guard's `if`)."""
    enum, name = variant.split("::")
    for m in re.finditer(rf"(?<!\w)(?:{enum}|Self)::{name}\b", code_text):
        if any(lo <= m.start() < hi for lo, hi in patterns):
            continue
        end = m.end()
        payload = re.match(r"\s*[({]", code_text[end:])
        if payload:
            end = group_end(code_text, end + payload.end() - 1)
        before = code_text[: m.start()].rstrip()
        if before.endswith("|") and not CLOSURE.search(before):
            continue
        if not re.match(r"\s*(?:=>|\|(?!\|)|if\b)", code_text[end:]):
            return True
    return False


consts = {
    m.group(1): path
    for path in sources("crates/*/src/**/*.rs")
    for m in map(CONST.match, (line for line, _ in code_lines(path)))
    if m
}


def named(name):
    """Whether a non-test line other than `name`'s definitions names it."""
    for line, _ in code:
        definition = CONST.match(line)
        if re.search(rf"\b{name}\b", line) and not (definition and definition.group(1) == name):
            return True
    return False


variants = {v: path for path in sources("crates/*/src/**/*.rs") for v in enum_variants(path)}
callerless = {name: path for name, path in defined.items() if not used(name)}
callerless.update({name: path for name, path in consts.items() if not named(name)})
callerless.update({v: path for v, path in variants.items() if not constructed(v)})
new = sorted(set(callerless) - ALLOWED)
stale = sorted(ALLOWED - set(callerless))
shared = {name for name, n in count.items() if n > 1}
unchecked = sorted(shared - SHADOWED)
unshared = sorted(SHADOWED - shared)
hidden = [
    f"{path}:{n}" for path in sources("crates/*/src/**/*.rs", "crates/*/benches/**/*.rs")
    for n in hidden_items(path)
]
misnamed = [
    f"{path}:{n}"
    for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True))
    for n in misnamed_test_modules(path)
]
for name in new:
    print(f"caller-less: {name} ({callerless[name]})")
for name in stale:
    print(f"allowlisted but called or gone — drop it from ALLOWED: {name}")
for name in unchecked:
    print(f"shared by {count[name]} pub fns — check each, then add it to SHADOWED: {name}")
for name in unshared:
    print(f"no longer shared — drop it from SHADOWED: {name}")
for where in hidden:
    print(f"non-test item after the first #[cfg(test)] — move it above, or gate it: {where}")
for where in misnamed:
    print(f"test module file not named *_tests.rs — rename it: {where}")
print(
    f"{len(defined)} pub fn names, {len(consts)} pub consts and statics, {len(variants)} "
    f"pub enum variants, {len(callerless)} unused, {len(ALLOWED)} allowed, "
    f"{len(shared)} shared"
)
sys.exit(1 if new or stale or unchecked or unshared or hidden or misnamed else 0)
