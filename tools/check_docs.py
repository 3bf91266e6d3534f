#!/usr/bin/env python3
"""Docs consistency checker for the CI docs job.

Three checks, all against the working tree (no build needed):

 1. Scenario-table consistency: every scenario registered via
    BULLET_SCENARIO(...) in bench/*.cc must have a row in the README's
    "Scenarios" table, and every row must name a registered scenario.

 2. Internal markdown links: every relative link target in README.md and
    docs/*.md must exist on disk (anchors are stripped; external URLs and
    badge images are ignored).

 3. Change-log entries: CHANGES.md has an entry line starting `PR N:` (or
    `PR N (tag):`) for every N from 1 to the highest N it mentions.

Exit 0 when all pass, 1 with a FAIL line per violation otherwise.

Usage: tools/check_docs.py [repo-root]
"""

import os
import re
import sys


def registered_scenarios(root):
    names = set()
    bench = os.path.join(root, "bench")
    pat = re.compile(r"BULLET_SCENARIO\(\s*(\w+)")
    for fn in sorted(os.listdir(bench)):
        if not fn.endswith(".cc"):
            continue
        with open(os.path.join(bench, fn), encoding="utf-8") as fh:
            for m in pat.finditer(fh.read()):
                names.add(m.group(1))
    return names


def readme_table_scenarios(root):
    """Scenario names from rows of the README table whose first cell is
    a backquoted identifier, e.g. `| `fig04_overall_static` | ... |`."""
    names = set()
    pat = re.compile(r"^\|\s*`(\w+)`\s*\|")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            m = pat.match(line)
            if m:
                names.add(m.group(1))
    return names


def markdown_files(root):
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        files += [os.path.join(docs, f) for f in sorted(os.listdir(docs)) if f.endswith(".md")]
    return files


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(root):
    failures = []
    for path in markdown_files(root):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure in-page anchor
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                failures.append(f"FAIL {rel}: broken link -> {target}")
    return failures


CHANGES_ENTRY = re.compile(r"^PR (\d+)(?: \([^)]*\))?:")


def check_changes(root):
    """One FAIL per PR number missing between 1 and the highest entry."""
    path = os.path.join(root, "CHANGES.md")
    if not os.path.isfile(path):
        return ["FAIL CHANGES.md: missing"]
    with open(path, encoding="utf-8") as fh:
        numbers = {int(m.group(1)) for m in map(CHANGES_ENTRY.match, fh) if m}
    if not numbers:
        return ["FAIL CHANGES.md: no `PR N:` entries"]
    return [f"FAIL CHANGES.md: no entry for PR {n} (entries run to PR {max(numbers)})"
            for n in range(1, max(numbers) + 1) if n not in numbers]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []

    registered = registered_scenarios(root)
    documented = readme_table_scenarios(root)
    # The README also has backquoted-first-cell tables for the protocol
    # registry; only compare names that look like scenario rows, i.e. the
    # registered set must be a subset of documented and any documented name
    # containing "fig"/"ablation"/"churn"/"perf" must be registered.
    for name in sorted(registered - documented):
        failures.append(f"FAIL README.md: scenario `{name}` registered in bench/ but missing from the scenario table")
    scenario_like = re.compile(r"^(fig\d+_|ablation_|churn_|perf_)")
    for name in sorted(documented - registered):
        if scenario_like.match(name):
            failures.append(f"FAIL README.md: scenario table row `{name}` has no BULLET_SCENARIO registration")

    failures += check_links(root)
    failures += check_changes(root)

    for f in failures:
        print(f)
    if failures:
        return 1
    print(f"OK: {len(registered)} scenarios documented, links resolve in {len(markdown_files(root))} markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
