#!/usr/bin/env python3
"""Caller-less scan: every `pub fn` under crates/*/src must be called from
a non-test line of some crate, binary, bench, example or the benchmark
harness, or be on the allowlist of references and seams ROADMAP lists
(each says in its doc comment which tests compare against it).

A use is the name followed by `(` or `::<`, or reached through `.` or
`::` (a method call, or a function passed by path) — outside comments,
`pub use` re-exports, the definition itself and everything from a file's
first `#[cfg(test)]` on. The scan is by name, not by item: two functions
of one name vouch for each other, so every name two or more `pub fn`s
share is on SHADOWED, checked definition by definition (which type's
method each non-test call resolves to). A newly shared name fails the
scan until it is checked and listed; a listed name no longer shared
fails too.
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

SHADOWED = {
    # every definition has a non-test caller
    "add", "all", "baseline", "build", "candidates", "catalog", "cost", "drift",
    "empty", "execute", "feasible", "get", "heap_bytes", "hours", "label", "len",
    "levels", "name", "new", "objective", "problem", "rank", "record",
    "render", "row", "saturating_sub", "scale", "scale_rates", "score",
    "selection", "set", "solve", "spill", "timeline_csv", "total", "validate",
    "value", "with_selection",
    # `len`'s companions (clippy's len_without_is_empty); no non-test caller
    "is_empty",
    # one definition only tests read, beside called namesakes: the DP
    # oracles' totals, `SelectionSet::toggle` / `iter`, the unit types'
    # `max` / `min` (`Hours`, `Gb`, `Money`), `Value::as_int` / `as_str`,
    # `Table::columns`, `InterruptionRisk::adjust`, `PriceTrace::compute`,
    # `SparseCoverage::entries`, `WorkloadEvolution::epochs`,
    # `MarketScenario::is_stochastic`
    "total_cost", "toggle", "iter", "max", "min", "as_int", "as_str", "columns",
    "adjust", "compute", "entries", "epochs", "is_stochastic",
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


defined, count = {}, {}
for path in sources("crates/*/src/**/*.rs"):
    for line in code_lines(path):
        m = re.match(r"\s*pub (?:const )?fn (\w+)", line)
        if m:
            defined.setdefault(m.group(1), path)
            count[m.group(1)] = count.get(m.group(1), 0) + 1

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
shared = {name for name, n in count.items() if n > 1}
unchecked = sorted(shared - SHADOWED)
unshared = sorted(SHADOWED - shared)
for name in new:
    print(f"caller-less: {name} ({callerless[name]})")
for name in stale:
    print(f"allowlisted but called or gone — drop it from ALLOWED: {name}")
for name in unchecked:
    print(f"shared by {count[name]} pub fns — check each, then add it to SHADOWED: {name}")
for name in unshared:
    print(f"no longer shared — drop it from SHADOWED: {name}")
print(
    f"{len(defined)} pub fn names, {len(callerless)} caller-less, {len(ALLOWED)} allowed, "
    f"{len(shared)} shared"
)
sys.exit(1 if new or stale or unchecked or unshared else 0)
