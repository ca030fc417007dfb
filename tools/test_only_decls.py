#!/usr/bin/env python3
"""List public names declared in src/**/*.hpp that only tests use.

A name counts as used when a file outside tests/ (src, examples, bench,
perfbench, tools) mentions it anywhere other than its own declaration
in the header and its out-of-line definition. A type name is used by
any mention of the word; a function name only by a mention of call or
member shape: `name(`, `.name`, `->name` or `::name` (which covers
`&Class::name`). Comments and string literals are ignored.

Matching is still by name, so overloads and members that share a name
with something else count as one: a generic name such as `add` or
`size` is "used" as soon as any class's `add(` or `.size` is, and a
test-only member behind such a name stays hidden. The script cannot see
these masks:

  * an overload whose sibling has a production caller (a second
    `submit(..., spec)` beside the used `submit(..., name)`, a
    name-keyed `request_fingerprint` beside the structural one);
  * a member sharing a free function's name (`SchedulerService::execute`
    behind `exec::execute`), or a free function sharing another
    namespace's (`net::write_dot` behind `dag::write_dot`);
  * a member sharing another class's member (`ProcessorTimeline::
    busy_time` behind `LinkTimeline::busy_time`).

Each of those was found and deleted by hand, so deleting or adding a
public function still needs a look by hand.

Prints every unused name as `header:line: name` and exits 1 when one is
not in ALLOWLIST below, or when an ALLOWLIST entry names nothing unused
any more, so production code whose only caller is a test cannot regrow
unseen and a freed entry cannot linger. Run from anywhere (ctest runs
it as `test_only_decls`, CI's build-test job as its own step):

    python3 tools/test_only_decls.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "bench", "perfbench", "tools")
SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# name -> why it stays although only tests call it.
ALLOWLIST = {
    "reset_for_test": "test hook of the process-global metrics registry",
    "probe_basic_linear":
        "reference implementation behind probe_from(0, ...)",
    "earliest_start_linear":
        "reference walk from gap 0 behind the hinted `earliest_start`",
    "probe_optimal_linear":
        "probe_impl with early_exit=false, kept as reference",
    **dict.fromkeys(
        ("out_tree", "in_tree", "fft", "stencil_1d", "diamond", "bus",
         "switch_tree"),
        "catalogue DAG/topology generator listed in DESIGN.md"),
    **dict.fromkeys(
        ("critical_path_length", "critical_path", "shape", "is_valid"),
        "public DAG/schedule query of the library API"),
    "write_stg": "STG writer paired with the read_stg the CLI uses",
    "write_text": "text writer paired with the read_text the CLI uses",
    "scripted":
        "test seam: the only way to pin a fault at a chosen time; "
        "production samples plans through FaultPlan::sampled",
    **dict.fromkeys(("type", "as_bool", "members"),
                    "JsonValue accessor completing the parsed-value API"),
    "pooled_workspaces":
        "pins the workspace-recycling bound in two property tests; no "
        "counter exposes that bound",
    "check_invariants": "debug consistency check over a timeline",
}

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "decltype",
    "static_assert", "noexcept", "operator", "requires", "catch", "throw",
    "new", "delete", "explicit", "assert", "defined",
}

# `[[nodiscard]] static std::vector<int> name(` and the like: a return
# type ending in a word, `>`, `*` or `&`, then the declared name.
FUNCTION_DECL = re.compile(
    r"^\s*(?:\[\[\w+\]\]\s*)?(?:(?:static|virtual|inline|constexpr|friend|"
    r"explicit)\s+)*[\w:<>,\s*&]*?[\w>*&]\s+[*&]*(~?[A-Za-z_]\w*)\s*\(")
TYPE_DECL = re.compile(
    r"^\s*(?:class|struct|enum\s+class|enum|using)\s+([A-Za-z_]\w*)\b(?!\s*;)")
WORD = re.compile(r"[A-Za-z_]\w*")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(" ")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files():
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def declarations(lines):
    """(name, line number) for every function and type the header declares."""
    found = []
    private = []  # per open class/struct: inside a private section?
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if re.match(r"(?:class|struct)\b[^;]*\{\s*$", stripped):
            private.append(stripped.startswith("class"))
        if re.match(r"public\s*:", stripped) and private:
            private[-1] = False
        elif re.match(r"(?:private|protected)\s*:", stripped) and private:
            private[-1] = True
        if stripped.startswith("};") and private:
            private.pop()
        if private and private[-1]:
            continue
        match = TYPE_DECL.match(line) or FUNCTION_DECL.match(line)
        if not match:
            continue
        name = match.group(1)
        if name.startswith("~") or name in KEYWORDS:
            continue
        found.append((name, number))
    return found


def main():
    texts = {path: strip_comments_and_strings(path.read_text())
             for path in source_files()}
    lines_of = {path: text.split("\n") for path, text in texts.items()}

    decls = []  # (name, header, line)
    type_names = set()  # every type a header names, private ones too
    for path in texts:
        if path.suffix == ".hpp" and path.is_relative_to(ROOT / "src"):
            for name, number in declarations(lines_of[path]):
                decls.append((name, path, number))
            type_names.update(match.group(1) for match in map(
                TYPE_DECL.match, lines_of[path]) if match)
    own_lines = {}  # name -> set of (path, line) that declare it
    for name, path, number in decls:
        own_lines.setdefault(name, set()).add((path, number))
    # Functions (constructors share their class's name and count as types)
    # are used only by a mention of call or member shape.
    call_shapes = {name: re.compile(
        r"(?:\.|->|::)\s*" + name + r"\b|\b" + name + r"\s*\(")
        for name in own_lines if name not in type_names}

    wanted = set(own_lines)
    used = set()
    for path, lines in lines_of.items():
        for number, line in enumerate(lines, 1):
            words = set(WORD.findall(line)) & wanted
            if not words:
                continue
            for name in words - used:
                if (path, number) in own_lines[name]:
                    continue
                if is_definition(line, name):
                    continue
                shape = call_shapes.get(name)
                if shape is not None and not shape.search(line):
                    continue
                used.add(name)

    unused = sorted({(str(path.relative_to(ROOT)), number, name)
                     for name, path, number in decls if name not in used})
    failed = False
    for header, number, name in unused:
        note = ALLOWLIST.get(name)
        if note is None:
            failed = True
            print(f"{header}:{number}: {name}")
        else:
            print(f"{header}:{number}: {name} (allowed: {note})")
    if failed:
        print("test_only_decls: public declarations with no caller outside "
              "tests/ (delete them, or add an ALLOWLIST entry with a reason)")
    stale = sorted(set(ALLOWLIST) - {name for _, _, name in unused})
    for name in stale:
        failed = True
        print(f"allowlist entry no longer needed: {name} (delete it)")
    return 1 if failed else 0


def is_definition(line, name):
    """An out-of-line definition starts in column 0: `T Class::name(`."""
    if not line or line[0].isspace():
        return False
    return re.match(
        r"^(?:[\w:<>,\s*&]*[\w>*&]\s+[*&]*)?(?:\w+::)*" + re.escape(name) +
        r"\s*\(", line) is not None


if __name__ == "__main__":
    sys.exit(main())
