#!/usr/bin/env python3
"""Caller-less scan: every `pub fn` under crates/*/src must be called from
a non-test line of some crate, binary, bench, example or the benchmark
harness, or be on the allowlist of references and seams ROADMAP lists
(each says in its doc comment which tests compare against it).

A use is the name followed by `(` or `::<`, or reached through `.` or
`::` (a method call, or a function passed by path) — outside comments,
`pub use` re-exports, the definition itself and everything from a file's
first `#[cfg(test)]` on. The scan is by name, not by item: two functions
of one name vouch for each other.
"""
import glob
import re
import sys

ALLOWED = {
    # slow references the identity tests compare the fast paths against
    "solve_rebuilding", "solve_dp_exact", "solve_dp_fleet", "solve_fleet_paths",
    "reference_evaluate", "churn_chain", "random_sparse_problem", "with_tied_times",
    "paper_like_problem",
    "refine", "identity", "table_from_csv", "to_sorted_rows",
    # counter seams the counter-pinned tests read
    "scoped", "local_delta", "rebase",
    # lattice-order duals the order tests hold `covers` / `lca` / `children` to
    "strictly_covers", "meet", "apex", "parents",
    # the paper's vocabulary: the raw MV3 mix; the rest until calibration
    # feeds the planner (direction 3)
    "tradeoff", "record_transfer_in", "query_charge", "view_charge",
    # shape accessors and a filter shorthand only tests and doc tests read
    "dimensions", "num_cuboids", "eq",
}


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


defined = {}
for path in sources("crates/*/src/**/*.rs"):
    for line in code_lines(path):
        m = re.match(r"\s*pub (?:const )?fn (\w+)", line)
        if m:
            defined.setdefault(m.group(1), path)

code = "".join(
    line
    for path in sources(
        "crates/*/src/**/*.rs", "crates/*/benches/**/*.rs", "examples/**/*.rs",
        "src/**/*.rs", "benchmark/src/**/*.rs",
    )
    for line in code_lines(path)
)


def used(name):
    call = rf"(?<!fn )\b{name}\s*(?:\(|::<)"
    path = rf"(?:\.|::)\s*{name}\b"
    return re.search(f"{call}|{path}", code) is not None


callerless = {name: path for name, path in defined.items() if not used(name)}
new = sorted(set(callerless) - ALLOWED)
stale = sorted(ALLOWED - set(callerless))
for name in new:
    print(f"caller-less: {name} ({callerless[name]})")
for name in stale:
    print(f"allowlisted but called or gone — drop it from ALLOWED: {name}")
print(f"{len(defined)} pub fn names, {len(callerless)} caller-less, {len(ALLOWED)} allowed")
sys.exit(1 if new or stale else 0)
