#!/usr/bin/env python3
"""Caller-less scan of `crates/*/src`, in two passes.

`callerless.py --compile` decides each `pub fn` by compiling. One
definition at a time is renamed in a scratch copy of the tracked files
(a free function's `pub use` re-exports with it), and every non-test
target is type-checked: `cargo check --workspace --lib --bins
--examples`, `cargo check -p mv-bench --bench micro` and the benchmark
manifest. A definition whose copy still type-checks has no non-test
caller. `--benches` and `--all-targets` are not used: they build each
library in test mode, so the tests' calls would count. The pass takes
about 5 minutes on 2 vCPUs.

`callerless.py` with no argument runs the quick checks, by name. A `pub
const` or `pub static` (an associated one included) is used where a
non-test line other than a definition names it. A variant of a `pub
enum` is used where a non-test line constructs it as `Enum::Variant` or
`Self::Variant`: a `match` arm's pattern, a `|` alternative and the
patterns of `matches!`, `if let` and `while let` only read one. A
non-test line is outside comments, `pub use` re-exports and everything
from a file's first `#[cfg(test)]` on. Since the scan and CI's non-test
line count both stop at that attribute, a non-test item after it would
go unseen by both, so the scan fails on one. Both also skip every
`*_tests.rs` file, so a `#[cfg(test)] mod x;` whose file is not named so
would be read as product code: the scan fails on one too.

Either pass fails on an unused item whose name is not on ALLOWED, the
references and seams ROADMAP lists (each says in its doc comment which
tests read it), and on an allowlisted name that is no longer unused.
"""
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

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
    # shape accessors, and what only tests and doc tests call: two filter
    # shorthands, a string-column push, a span lookup
    "dimensions", "num_cuboids", "eq", "cmp", "push_str", "span",
    # `len`'s companions (clippy's len_without_is_empty)
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


def code_lines(path):
    """Non-test, non-comment, non-`pub use` lines of one source file."""
    out, in_use = [], False
    for line in open(path, encoding="utf-8"):
        if "#[cfg(test)]" in line:
            break
        line = line.split("//")[0]
        if in_use or re.match(r"\s*pub use\b", line):
            in_use = ";" not in line
            continue
        out.append(line)
    return out


def sources(*patterns):
    return sorted(
        f for p in patterns for f in glob.glob(p, recursive=True) if not f.endswith("_tests.rs")
    )


DEF = re.compile(r"(\s*)pub (?:const )?fn (\w+)")
PROBE = "__callerless_probe"
CHECKS = [
    ["cargo", "check", "-q", "--offline", "--workspace", "--lib", "--bins", "--examples"],
    ["cargo", "check", "-q", "--offline", "-p", "mv-bench", "--bench", "micro"],
    ["cargo", "check", "-q", "--offline", "--manifest-path", "benchmark/Cargo.toml"],
]


def definitions():
    """`(path, line number, name, free)` of every non-test `pub fn`."""
    out = []
    for path in sources("crates/*/src/**/*.rs"):
        for n, line in enumerate(open(path, encoding="utf-8"), 1):
            if "#[cfg(test)]" in line:
                break
            m = DEF.match(line.split("//")[0])
            if m:
                out.append((path, n, m.group(2), not m.group(1)))
    return out


def renamed(path, n, name, free):
    """`{file: text}` of the files renaming one definition touches: its
    own line, and for a free function its `pub use` re-exports."""
    files = {}
    for f in sources("crates/*/src/**/*.rs") if free else [path]:
        lines = open(f, encoding="utf-8").read().splitlines(keepends=True)
        in_use = False
        for i, line in enumerate(lines):
            if "#[cfg(test)]" in line:
                break
            if f == path and i + 1 == n:
                lines[i] = re.sub(rf"\bfn {name}\b", f"fn {name}{PROBE}", line, count=1)
            elif free and (in_use or re.match(r"\s*pub use\b", line)):
                in_use = ";" not in line
                lines[i] = re.sub(rf"(?<!as )\b{name}\b(?!\s*::)", name + PROBE, line)
        text = "".join(lines)
        if text != open(f, encoding="utf-8").read():
            files[f] = text
    return files


def compile_pass():
    """The `pub fn` definitions whose renamed copy still type-checks."""
    began = time.monotonic()
    tracked = subprocess.run(
        ["git", "ls-files", "-z"], capture_output=True, check=True, text=True
    ).stdout.split("\0")
    with tempfile.TemporaryDirectory() as copy:
        for f in filter(os.path.isfile, filter(None, tracked)):
            os.makedirs(os.path.join(copy, os.path.dirname(f)), exist_ok=True)
            shutil.copy2(f, os.path.join(copy, f))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(copy, "target"))

        def type_checks():
            return all(
                subprocess.run(c, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL).returncode == 0
                for c in CHECKS
            )

        if not type_checks():
            sys.exit("the copy does not type-check before any rename")
        defs, unused = definitions(), []
        for path, n, name, free in defs:
            files = renamed(path, n, name, free)
            for f, text in files.items():
                open(os.path.join(copy, f), "w", encoding="utf-8").write(text)
            if type_checks():
                unused.append((path, n, name))
            # Restored with a fresh mtime, so that cargo re-checks the file.
            for f in files:
                shutil.copyfile(f, os.path.join(copy, f))
    return defs, unused, time.monotonic() - began


if sys.argv[1:] == ["--compile"]:
    defs, unused, seconds = compile_pass()
    names = {name for _, _, name, _ in defs}
    for path, n, name in unused:
        if name not in ALLOWED:
            print(f"caller-less: {name} ({path}:{n})")
    stale = sorted((ALLOWED & names) - {name for _, _, name in unused})
    for name in stale:
        print(f"allowlisted but called — drop it from ALLOWED: {name}")
    print(
        f"{len(defs)} pub fn definitions, {len(unused)} unused, "
        f"{len(ALLOWED & names)} allowed names, {seconds:.0f} s"
    )
    new = [name for _, _, name in unused if name not in ALLOWED]
    sys.exit(1 if new or stale else 0)
elif sys.argv[1:]:
    sys.exit("usage: callerless.py [--compile]")


code = [
    line
    for path in sources(
        "crates/*/src/**/*.rs", "crates/*/benches/**/*.rs", "examples/**/*.rs",
        "src/**/*.rs", "benchmark/src/**/*.rs",
    )
    for line in code_lines(path)
]
CONST = re.compile(r"\s*pub (?:const|static) (?!fn\b)(\w+)\s*:")
ENUM = re.compile(r"(\s*)pub enum (\w+)")
VARIANT = re.compile(r"\s*([A-Z]\w*)\b")


def enum_variants(path):
    """`Enum::Variant` names of one file's non-test `pub enum`s: a body
    runs to the first `}` at its `pub enum`'s indentation, and a variant
    is a name at the body's first nesting level."""
    out, enum, depth = [], None, 0
    for line in code_lines(path):
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


code_text = "\n".join(line.rstrip("\n") for line in code)
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
    for m in map(CONST.match, code_lines(path))
    if m
}


def named(name):
    """Whether a non-test line other than `name`'s definitions names it."""
    for line in code:
        definition = CONST.match(line)
        if re.search(rf"\b{name}\b", line) and not (definition and definition.group(1) == name):
            return True
    return False


variants = {v: path for path in sources("crates/*/src/**/*.rs") for v in enum_variants(path)}
callerless = {name: path for name, path in consts.items() if not named(name)}
callerless.update({v: path for v, path in variants.items() if not constructed(v)})
new = sorted(set(callerless) - ALLOWED)
# An allowlisted `pub fn` name is the compile pass's to judge.
stale = sorted(ALLOWED - set(callerless) - {name for _, _, name, _ in definitions()})
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
for where in hidden:
    print(f"non-test item after the first #[cfg(test)] — move it above, or gate it: {where}")
for where in misnamed:
    print(f"test module file not named *_tests.rs — rename it: {where}")
print(
    f"{len(consts)} pub consts and statics, {len(variants)} pub enum variants, "
    f"{len(callerless)} unused"
)
sys.exit(1 if new or stale or hidden or misnamed else 0)
