#!/usr/bin/env python3
"""List public names and option fields in src/**/*.hpp that only tests use.

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

Option fields are checked too: every data member with a default
initializer in a struct whose name ends in `Options`, `Config` or
`Params`, and in `AlgorithmSpec`. Such a field is a setting, and a
setting counts as used only when a file outside tests/ writes it:
`.field =` or `->field =` (not `==`; designated initialisers included)
or `.field.member =`. A setting that only tests write is one value in
every program and belongs in a constant. Matching is by field name
here too, so a field sharing its name with another struct's field
(`seed`, `threads`) counts as written as soon as either is, and a
write through a pointer or reference to the field itself
(`parse(&options.seed)`) or positional aggregate initialisation is not
seen.

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
    **dict.fromkeys(
        ("ExecutionOptions::max_retries", "ExecutionOptions::retry_backoff",
         "ExecutionOptions::max_reschedules",
         "ExecutionOptions::reschedule_delay"),
        "retry/reschedule setting; tests/golden/exec_dispatch.digests pins "
        "non-default values"),
    **dict.fromkeys(
        ("RandomWanParams::fanout_min", "RandomWanParams::fanout_max",
         "RandomWanParams::extra_switch_link_probability"),
        "generator parameter; engine_golden_test pins non-default values"),
    **dict.fromkeys(
        ("LayeredDagParams::width_factor", "LayeredDagParams::in_degree_min",
         "LayeredDagParams::in_degree_max",
         "LayeredDagParams::skip_edge_probability",
         "SpeedConfig::fixed_processor_speed", "SpeedConfig::fixed_link_speed",
         "SpeedConfig::processor_speed_min", "SpeedConfig::processor_speed_max",
         "SpeedConfig::link_speed_min", "SpeedConfig::link_speed_max"),
        "generator parameter of the public catalogue; property suites "
        "sweep non-default values"),
    **dict.fromkeys(
        ("ValidationOptions::epsilon",
         "ValidationOptions::allow_contention_free"),
        "setting of the independent validator, which checks schedules "
        "from any source"),
    "PerturbationOptions::trials":
        "robustness trial count of the sim layer's library API",
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
OPTION_STRUCT = re.compile(
    r"\bstruct\s+(\w*(?:Options|Config|Params)|AlgorithmSpec)\s*"
    r"(?::[^;{]*)?\{")
# One member statement with a default initializer: `T name = v` or
# `T name{v}`, no parenthesis before the name.
FIELD_DECL = re.compile(
    r"^(?!(?:static|using|friend|typedef|enum|struct|class)\b)"
    r"[\w:<>,\s*&]*?[\w>*&]\s+[*&]*([A-Za-z_]\w*)\s*(?:=|\{)")
ACCESS = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)+")


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


def option_fields(text):
    """(struct, field, line number) for every defaulted option field."""
    found = []
    for match in OPTION_STRUCT.finditer(text):
        depth = 0
        begin = match.end()  # start of the current member statement
        for i in range(match.end(), len(text)):
            c = text[i]
            if c in "{(":
                depth += 1
            elif c in ")}" and depth > 0:
                depth -= 1
            elif c == "}":
                break  # the struct's own closing brace
            if depth > 0 or c not in ";}":
                continue
            member = ACCESS.sub("", text[begin:i], 1).lstrip()
            field = FIELD_DECL.match(member)
            if field:  # `member` ends at i, so it starts at i - len(member)
                found.append((match.group(1), field.group(1),
                              text.count("\n", 0, i - len(member)) + 1))
            begin = i + 1
    return found


def unused_fields(texts):
    """(header, line, `Struct::field`) for settings nothing but tests write."""
    fields = []
    for path, text in texts.items():
        if path.suffix == ".hpp" and path.is_relative_to(ROOT / "src"):
            fields.extend((path, number, struct, name)
                          for struct, name, number in option_fields(text))
    unused = []
    for path, number, struct, name in fields:
        write = re.compile(r"(?:\.|->)\s*" + name +
                           r"\s*(?:\.\s*\w+\s*)?=(?!=)")
        if not any(write.search(text) for text in texts.values()):
            unused.append((str(path.relative_to(ROOT)), number,
                           f"{struct}::{name}"))
    return unused


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
                     for name, path, number in decls if name not in used}
                    | set(unused_fields(texts)))
    failed = False
    for header, number, name in unused:
        note = ALLOWLIST.get(name)
        if note is None:
            failed = True
            print(f"{header}:{number}: {name}")
        else:
            print(f"{header}:{number}: {name} (allowed: {note})")
    if failed:
        print("test_only_decls: public declarations or option fields with "
              "no caller or writer outside tests/ (delete them, or add an "
              "ALLOWLIST entry with a reason)")
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
