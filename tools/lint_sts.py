#!/usr/bin/env python3
"""Project-specific invariants that neither the compiler nor clang-tidy check.

Run from anywhere: `python3 tools/lint_sts.py`. Exits non-zero listing every
violation. Enforced rules:

 1. Every counter declared in a `struct Stats` must be rendered by a
    stats_json() implementation AND documented in the README stats table:
    a counter that is maintained but never surfaced is dead weight, and one
    missing from the README is invisible to operators.

 2. `sim/sim_internal.hpp` is private to src/sim/ — the simulator's internal
    event structures are not a public seam.

 3. Every bench/bench_*.cpp emits its BENCH_<name>.json report (CI archives
    these; perf gates read them), via BenchReport("<name>") or a literal
    "BENCH_<name>.json" write.

 4. The request key is hashed once. ScheduleRequest::key() computes
    fnv1a64 of the key beside the key itself (service/request.cpp), and the
    shard index, the ScheduleCache buckets and ShardRouter routing all take
    that memoized key_hash(): on a large graph the key is megabytes, and
    each extra pass costs a measurable share of a delta request. So no
    fnv1a64( call outside service/request.cpp may take a key() or
    release_key() result — directly, or through a name bound to one in the
    same file. Functions that receive a plain key string (the cache's
    string-only overloads, for callers without a request) are not affected.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BENCH = REPO / "bench"
README = REPO / "README.md"

def fail(errors: list[str], message: str) -> None:
    errors.append(message)


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments (string literals are left alone: good
    enough for these rules, where the tokens we scan for never appear inside
    project string literals in a misleading way)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def stats_counters() -> list[tuple[Path, str]]:
    counters = []
    for path in sorted(SRC.rglob("*.hpp")):
        text = strip_comments(path.read_text())
        for match in re.finditer(r"struct\s+Stats\s*\{", text):
            start = match.end() - 1
            depth = 0
            for i in range(start, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        body = text[start : i + 1]
                        for field in re.finditer(r"std::uint64_t\s+(\w+)\s*=", body):
                            counters.append((path, field.group(1)))
                        break
    return counters


def check_stats_surfaced(errors: list[str]) -> None:
    renderers = ""
    for path in sorted(SRC.rglob("*.cpp")):
        text = path.read_text()
        if "stats_json" in text:
            renderers += text
    rendered_keys = set(re.findall(r'"([\w]+)"', renderers))
    readme_table_rows = [
        line for line in README.read_text().splitlines() if line.lstrip().startswith("|")
    ]
    for path, counter in stats_counters():
        if not any(counter in key for key in rendered_keys):
            fail(
                errors,
                f"{path.relative_to(REPO)}: Stats counter `{counter}` is never "
                "rendered by any stats_json()",
            )
        if not any(counter in row for row in readme_table_rows):
            fail(
                errors,
                f"{path.relative_to(REPO)}: Stats counter `{counter}` is missing "
                "from the README stats table",
            )


def check_sim_internal_private(errors: list[str]) -> None:
    for path in sorted(SRC.rglob("*.[ch]pp")):
        if path.is_relative_to(SRC / "sim"):
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r'#\s*include\s*"sim/sim_internal\.hpp"', line):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: sim/sim_internal.hpp is "
                    "private to src/sim/",
                )
    for path in sorted((REPO / "tests").glob("*.cpp")) + sorted(BENCH.glob("*.cpp")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r'#\s*include\s*"sim/sim_internal\.hpp"', line):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: sim/sim_internal.hpp is "
                    "private to src/sim/",
                )


def check_bench_reports(errors: list[str]) -> None:
    for path in sorted(BENCH.glob("bench_*.cpp")):
        name = path.stem[len("bench_") :]
        text = path.read_text()
        emits = (
            f'BenchReport report("{name}")' in text
            or f'BenchReport("{name}")' in text
            or f'"BENCH_{name}.json"' in text
        )
        if not emits:
            fail(
                errors,
                f"{path.relative_to(REPO)}: does not emit BENCH_{name}.json "
                f'(construct sts::bench::BenchReport("{name}") and write() it)',
            )


KEY_HASH_OWNER = SRC / "service" / "request.cpp"
KEY_CALL = re.compile(r"\b(?:release_)?key\(\)")


def call_arguments(text: str, name: str):
    """Yields (offset, argument text) for every call `name(...)`, by paren
    tracking."""
    for match in re.finditer(r"\b" + name + r"\s*\(", text):
        depth = 1
        for i in range(match.end(), len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    yield match.start(), text[match.end() : i]
                    break


def check_key_hashed_once(errors: list[str]) -> None:
    paths = sorted(SRC.rglob("*.[ch]pp")) + sorted((REPO / "examples").glob("*.cpp"))
    paths += sorted(BENCH.glob("*.cpp"))
    for path in paths:
        if path == KEY_HASH_OWNER:
            continue
        # Comments go, newlines stay, so offsets still give line numbers.
        text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), path.read_text(),
                      flags=re.S)
        text = re.sub(r"//[^\n]*", "", text)
        aliases = set(re.findall(r"(\w+)\s*=\s*[\w.\->*]*\b(?:release_)?key\(\)", text))
        for offset, argument in call_arguments(text, "fnv1a64"):
            if KEY_CALL.search(argument) or argument.strip() in aliases:
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{text.count(chr(10), 0, offset) + 1}: "
                    f"fnv1a64({argument.strip()}) re-hashes a request key — take the "
                    "memoized ScheduleRequest::key_hash() instead",
                )


def main() -> int:
    errors: list[str] = []
    check_stats_surfaced(errors)
    check_sim_internal_private(errors)
    check_bench_reports(errors)
    check_key_hashed_once(errors)
    if errors:
        print(f"lint_sts: {len(errors)} violation(s)", file=sys.stderr)
        for message in errors:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("lint_sts: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
