#!/usr/bin/env python3
"""Counts the non-test lines of the workspace's Rust sources.

Usage: python3 tools/nontest_lines.py [REPO_ROOT]

The rule behind the line counts in ROADMAP.md and CHANGES.md: for every
`.rs` file under `crates/*/src` and `src/`, count the lines before the
file's first `#[cfg(test)]` at column 0 (all of them if it has none),
minus each indented `#[cfg(test)]` item before it, from the attribute
line to the end of the item. `oracle.rs` files, which only tests
compile, are skipped. Prints one line per crate (`root` for `src/`)
and a total.
"""

import os
import sys


def rust_files(root):
    """Yields (crate, path) for every counted file, crates in name order."""
    crates = os.path.join(root, "crates")
    sources = [(c, os.path.join(crates, c, "src")) for c in sorted(os.listdir(crates))]
    sources.append(("root", os.path.join(root, "src")))
    for crate, src in sources:
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs") and name != "oracle.rs":
                    yield crate, os.path.join(dirpath, name)


def item_end(lines, start):
    """Index of the last line of the item whose attribute is at `start`:
    where its braces balance again, or its `;` if it has no body."""
    depth, opened = 0, False
    for i in range(start + 1, len(lines)):
        depth += lines[i].count("{") - lines[i].count("}")
        opened = opened or "{" in lines[i]
        if (opened and depth <= 0) or (not opened and lines[i].rstrip().endswith(";")):
            return i
    return len(lines) - 1


def nontest_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    end = next((i for i, l in enumerate(lines) if l.startswith("#[cfg(test)]")), len(lines))
    lines = lines[:end]
    count, i = len(lines), 0
    while i < len(lines):
        if lines[i].strip() == "#[cfg(test)]":
            last = item_end(lines, i)
            count -= last - i + 1
            i = last
        i += 1
    return count


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    per_crate = {}
    for crate, path in rust_files(root):
        per_crate[crate] = per_crate.get(crate, 0) + nontest_lines(path)
    for crate, n in per_crate.items():
        print(f"{crate:<10} {n:>7,}")
    print(f"{'total':<10} {sum(per_crate.values()):>7,}")


if __name__ == "__main__":
    main()
