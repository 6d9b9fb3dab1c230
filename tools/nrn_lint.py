#!/usr/bin/env python3
"""nrn_lint: the project-invariant linter.

Walks the C++ translation units under src/, tools/ and bench/ and enforces
the determinism invariants this codebase has already bled for (PR 5's
cache-write race and PR 7's locale round-trip bugs were both found in the
field; these rules make that class of regression a build failure instead).

Rules
-----
locale-float      Locale-sensitive floating-point formatting/parsing
                  (std::stod/stof/stold, strtod/strtof/strtold, atof,
                  printf-family calls with a float conversion, and
                  std::to_string of a floating expression) anywhere outside
                  common/numio.  numio pins the C locale via uselocale; raw
                  calls silently follow LC_NUMERIC and corrupt round trips
                  under comma-decimal locales.
rng               rand()/srand(), std::random_device, std::mt19937 (and the
                  other std engines/distributions) outside common/rng.  All
                  randomness must come from the v4 coin tape; a stray std
                  engine is either nondeterministic across runs or across
                  standard libraries.
unordered-emit    std::unordered_map / std::unordered_set in emitter,
                  report, table, or wire translation units.  Iteration
                  order of the unordered containers is
                  implementation-defined, so anything they feed into
                  serialized output breaks bit-identity between builds.
raw-thread        std::thread / std::jthread outside common/task_pool and
                  serve/.  Ad-hoc threads bypass the pool's slot
                  discipline (per-slot workspaces, nesting-safe reentry)
                  and are invisible to the TSan stress tests.
format-version    Every record/shard/cache format literal ("experiment vN",
                  "nrn-sweep-shard vN", "nrn-sweep-cache vN") must agree
                  with the single kSweepFormatVersion constant
                  (src/sim/format_version.hpp).  With --diff REF, a change
                  to a serialization file that does not touch
                  format_version.hpp is also flagged: if you changed what
                  the bytes mean, bump the version.
rng-batch         Direct scalar Rng::mix64 calls in kernel/staging
                  translation units (src/radio/, src/core/, and any file
                  named *kernel*/*lockstep*/*staging*).  Engine v4 prices
                  fault coins through the batched mixers (mix64_batch /
                  coin_threshold_batch), which are bit-identical to the
                  scalar mixer and auto-vectorize; a stray per-coin mix64
                  in a hot loop silently forfeits that.  Waive it where a
                  genuinely scalar coin is correct.
fault-fields      Direct FaultModel field access (FaultKind::, fault.kind,
                  fault.p, fault.p_receiver, coins().p) outside src/radio/.
                  The channel abstraction (radio/channel_model.hpp) is the
                  one door into the fault layer; sim/tool/bench code reads
                  ChannelModel::effective_loss(), the derived helpers
                  (is_faultless, to_string) or the scenario's fault_text,
                  so an SINR channel can replace the edge-fault layer
                  without silent misreads.
waiver-reason     A waiver comment that names no reason.  Waivers are
                  `// nrn-lint: allow(<rule>): <reason>` on the offending
                  line or the line above; the reason string is mandatory.

Usage
-----
  nrn_lint.py [--root DIR] [--diff REF] [--self-test] [files...]

With no file arguments, scans DIR/src, DIR/tools and DIR/bench.  Exit
status is 0 when clean, 1 on violations, 2 on usage errors.  --self-test
runs every fixture under tests/lint_fixtures/ against its embedded
`// expect:` declarations and exits nonzero on any mismatch.
"""

import argparse
import os
import re
import subprocess
import sys

CXX_SUFFIXES = (".cpp", ".cc", ".hpp", ".h")

# Directories scanned relative to --root when no explicit files are given.
DEFAULT_SCAN_DIRS = ("src", "tools", "bench")

# Files whose whole job is the exempted behaviour.
LOCALE_EXEMPT = re.compile(r"(^|/)common/numio\.(cpp|hpp)$")
RNG_EXEMPT = re.compile(r"(^|/)common/rng\.(cpp|hpp)$")
THREAD_EXEMPT = re.compile(r"(^|/)(common/task_pool\.(cpp|hpp)|serve/[^/]+)$")

# The fault layer's home: the only directory allowed to read FaultModel's
# raw fields (the kernels and the channel abstraction live here).
FAULT_FIELD_EXEMPT = re.compile(r"(^|/)radio/")

# Translation units whose output must be byte-stable (emitters, the report
# and table renderers, the wire codec).
EMIT_UNITS = re.compile(r"(^|/)[^/]*(report|table|wire|emit)[^/]*\.(cpp|hpp|h|cc)$")

# Kernel/staging translation units: fault coins here must go through the
# batched mixers (mix64_batch / coin_threshold_batch), not per-coin mix64.
RNG_BATCH_UNITS = re.compile(
    r"(^|/)(radio|core)/[^/]+\.(cpp|hpp|h|cc)$"
    r"|(^|/)[^/]*(kernel|lockstep|staging)[^/]*\.(cpp|hpp|h|cc)$")
MIX64_CALL = re.compile(r"\bmix64\s*\(")  # mix64_batch( does not match

# Serialization files: a diff touching any of these must also touch the
# format-version header (checked in --diff mode).
SERIALIZATION_FILES = (
    "src/sim/sweep_runner.cpp",
    "src/sim/sweep_runner.hpp",
    "src/sim/protocol.hpp",
    "src/sim/protocol.cpp",
)
FORMAT_VERSION_HEADER = "src/sim/format_version.hpp"

FORMAT_LITERAL = re.compile(
    r"(?:experiment|nrn-sweep-shard|nrn-sweep-cache) v(\d+)")
FORMAT_CONSTANT = re.compile(r"kSweepFormatVersion\s*=\s*(\d+)")

WAIVER = re.compile(r"//\s*nrn-lint:\s*allow\(([a-z-]+)\)(?::\s*(\S.*))?")

PRINTF_CALL = re.compile(r"\b(?:std::)?(?:sn?printf|s?printf|fprintf|vs?printf|vsnprintf|vfprintf)\s*\(")
FLOAT_CONVERSION = re.compile(r'%[-+ #0\']*[\d*]*(?:\.[\d*]+)?(?:[hlLqjzt]|ll)?[aefgAEFG]')

LINE_RULES = [
    # (rule, regex, exempt-path-regex, message)
    ("locale-float",
     re.compile(r"\bstd::sto(?:d|f|ld)\s*\("),
     LOCALE_EXEMPT,
     "std::stod/stof/stold follow LC_NUMERIC; use nrn::parse_real (common/numio)"),
    ("locale-float",
     re.compile(r"\b(?:std::)?strto(?:d|f|ld)(?:_l)?\s*\("),
     LOCALE_EXEMPT,
     "strtod-family calls follow LC_NUMERIC; use nrn::parse_real (common/numio)"),
    ("locale-float",
     re.compile(r"\b(?:std::)?atof\s*\("),
     LOCALE_EXEMPT,
     "atof is locale-sensitive and reports no errors; use nrn::parse_real"),
    ("locale-float",
     re.compile(r"\bstd::to_string\s*\(\s*[^()]*(?:\d\.\d|\bdouble\b|\bfloat\b)"),
     LOCALE_EXEMPT,
     "std::to_string of a floating value follows LC_NUMERIC; use "
     "nrn::format_real / format_real_hex (common/numio)"),
    ("rng",
     re.compile(r"\b(?:std::)?s?rand\s*\("),
     RNG_EXEMPT,
     "rand()/srand() is global-state, non-reproducible randomness; use common/rng"),
    ("rng",
     re.compile(r"\bstd::random_device\b"),
     RNG_EXEMPT,
     "std::random_device is nondeterministic by design; seeds come from the scenario"),
    ("rng",
     re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux\w+|knuth_b)\b"),
     RNG_EXEMPT,
     "std engines are not the v4 coin tape; use common/rng (Rng)"),
    ("rng",
     re.compile(r"\bstd::(?:uniform_(?:int|real)_distribution|normal_distribution|"
                r"bernoulli_distribution|binomial_distribution)\b"),
     RNG_EXEMPT,
     "std distributions are implementation-defined across standard libraries; "
     "use the Rng primitives"),
    ("raw-thread",
     re.compile(r"\bstd::j?thread\b"),
     THREAD_EXEMPT,
     "raw std::thread bypasses TaskPool slot discipline; use common/task_pool"),
    ("fault-fields",
     re.compile(r"\bFaultKind\s*::"
                r"|\b(?:fault|coins\(\))\s*\.\s*(?:kind|p|p_receiver)\b"),
     FAULT_FIELD_EXEMPT,
     "direct FaultModel field access outside src/radio/: read "
     "ChannelModel::effective_loss(), the derived helpers (is_faultless, "
     "to_string) or the scenario's fault_text instead, so the ChannelModel "
     "abstraction stays the only door into the fault layer"),
]


class Violation:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no  # 1-based; 0 for file-level findings
        self.rule = rule
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line_no}" if self.line_no else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line):
    """Blanks out string/char literal contents and comment text so rule
    regexes only see code.  Printf format checking uses the raw line."""
    out = []
    i = 0
    n = len(line)
    state = None  # None | '"' | "'"
    while i < n:
        c = line[i]
        if state is None:
            if c == '/' and i + 1 < n and line[i + 1] in '/*':
                # Line scanning only: treat the rest of the line as comment.
                break
            if c in '"\'':
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        else:
            if c == '\\':
                out.append('  ')
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            else:
                out.append(' ')
            i += 1
    return ''.join(out)


def parse_waivers(lines):
    """Maps line number (1-based) -> {rule: reason_or_None}.  A waiver
    covers its own line plus the next code line: comment-only continuation
    lines in between stay covered, so a waiver may open a multi-line
    comment explaining itself."""
    waivers = {}
    for idx, line in enumerate(lines, start=1):
        for match in WAIVER.finditer(line):
            rule, reason = match.group(1), match.group(2)
            waivers.setdefault(idx, {})[rule] = reason
            for follower in range(idx + 1, len(lines) + 1):
                waivers.setdefault(follower, {})[rule] = reason
                if not lines[follower - 1].lstrip().startswith("//"):
                    break  # covered the first code line; stop
    return waivers


def lint_file(rel, text):
    violations = []
    lines = text.splitlines()
    waivers = parse_waivers(lines)

    def report(line_no, rule, message):
        waived = waivers.get(line_no, {})
        if rule in waived:
            if not waived[rule]:
                violations.append(Violation(
                    rel, line_no, "waiver-reason",
                    f"waiver for '{rule}' has no reason; write "
                    f"// nrn-lint: allow({rule}): <why this is safe>"))
            return
        violations.append(Violation(rel, line_no, rule, message))

    emit_unit = bool(EMIT_UNITS.search(rel))
    batch_unit = (bool(RNG_BATCH_UNITS.search(rel))
                  and not RNG_EXEMPT.search(rel))
    for idx, raw in enumerate(lines, start=1):
        code = strip_strings_and_comments(raw)
        for rule, pattern, exempt, message in LINE_RULES:
            if exempt.search(rel):
                continue
            if pattern.search(code):
                report(idx, rule, message)
        # printf float conversions live inside string literals, so this
        # check reads the raw line: a printf-family call whose visible
        # format string formats a float.
        if not LOCALE_EXEMPT.search(rel) and PRINTF_CALL.search(code):
            literals = re.findall(r'"((?:[^"\\]|\\.)*)"', raw)
            if any(FLOAT_CONVERSION.search(lit) for lit in literals):
                report(idx, "locale-float",
                       "printf-family float conversion follows LC_NUMERIC; "
                       "use nrn::format_real (common/numio)")
        if emit_unit and re.search(r"\bstd::unordered_(?:map|set)\b", code):
            report(idx, "unordered-emit",
                   "unordered container in an emitter/report/wire unit: "
                   "iteration order is implementation-defined, output "
                   "would not be byte-stable; use std::map / std::set")
        if batch_unit and MIX64_CALL.search(code):
            report(idx, "rng-batch",
                   "per-coin Rng::mix64 in a kernel/staging unit: price "
                   "coins through mix64_batch / coin_threshold_batch "
                   "(bit-identical, auto-vectorizes), or waive with a "
                   "reason if a scalar coin is genuinely right here")
    return violations


def check_format_versions(files):
    """Cross-file rule: every format literal must match the single
    kSweepFormatVersion definition."""
    violations = []
    constants = []  # (rel, line_no, value)
    literals = []   # (rel, line_no, value)
    for rel, text in files:
        lines = text.splitlines()
        waivers = parse_waivers(lines)
        for idx, line in enumerate(lines, start=1):
            if "format-version" in waivers.get(idx, {}):
                continue
            for match in FORMAT_CONSTANT.finditer(line):
                constants.append((rel, idx, int(match.group(1))))
            for match in FORMAT_LITERAL.finditer(line):
                literals.append((rel, idx, int(match.group(1))))
    if not literals and not constants:
        return violations
    if not constants:
        violations.append(Violation(
            literals[0][0], literals[0][1], "format-version",
            "format literals found but no kSweepFormatVersion definition "
            f"(expected in {FORMAT_VERSION_HEADER})"))
        return violations
    if len({value for _, _, value in constants}) > 1:
        rel, line_no, _ = constants[1]
        violations.append(Violation(
            rel, line_no, "format-version",
            "conflicting kSweepFormatVersion definitions"))
        return violations
    version = constants[0][2]
    for rel, line_no, value in literals:
        if value != version:
            violations.append(Violation(
                rel, line_no, "format-version",
                f"format literal says v{value} but kSweepFormatVersion is "
                f"{version}; serialization changes must bump the version "
                f"constant and every literal together"))
    return violations


def check_diff_version_bump(root, ref):
    """A diff that touches a serialization file must touch the version
    header too (changing what the bytes mean without bumping the version
    silently corrupts every warm cache)."""
    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            cwd=root, capture_output=True, text=True, check=True).stdout
        # Untracked files are part of "the change" too (a brand-new
        # format_version.hpp must satisfy the rule before its first commit).
        out += subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=root, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"nrn_lint: cannot diff against '{ref}': {error}", file=sys.stderr)
        return None
    changed = {line.strip() for line in out.splitlines() if line.strip()}
    touched = sorted(changed.intersection(SERIALIZATION_FILES))
    if touched and FORMAT_VERSION_HEADER not in changed:
        return [Violation(
            path, 0, "format-version",
            f"serialization file changed relative to {ref} without touching "
            f"{FORMAT_VERSION_HEADER}; if the record/shard/cache bytes "
            "changed, bump kSweepFormatVersion (and regenerate goldens); "
            "if they provably did not, waive with "
            "// nrn-lint: allow(format-version): <why>")
        for path in touched]
    return []


def collect_files(root, explicit):
    files = []
    if explicit:
        for path in explicit:
            rel = os.path.relpath(path, root) if os.path.isabs(path) else path
            files.append((rel, os.path.join(root, rel)))
        return files
    for scan_dir in DEFAULT_SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in sorted(filenames):
                if name.endswith(CXX_SUFFIXES):
                    full = os.path.join(dirpath, name)
                    files.append((os.path.relpath(full, root), full))
    files.sort()
    return files


def run_lint(root, explicit, diff_ref=None):
    loaded = []
    for rel, full in collect_files(root, explicit):
        try:
            with open(full, encoding="utf-8", errors="replace") as handle:
                loaded.append((rel, handle.read()))
        except OSError as error:
            print(f"nrn_lint: cannot read {full}: {error}", file=sys.stderr)
            return None
    violations = []
    for rel, text in loaded:
        violations.extend(lint_file(rel, text))
    violations.extend(check_format_versions(loaded))
    if diff_ref is not None:
        diff_violations = check_diff_version_bump(root, diff_ref)
        if diff_violations is None:
            return None
        violations.extend(diff_violations)
    return violations


# ------------------------------------------------------------- self-test

EXPECT = re.compile(r"//\s*expect:\s*([a-z-]+)")


def self_test(root):
    """Each fixture declares the rules it must trip via `// expect: <rule>`
    comments (one per expected violation).  A fixture is linted as its own
    one-file tree, so fixtures cannot interfere with each other; the clean
    and waived fixtures declare nothing and must produce nothing."""
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"nrn_lint: no fixture directory at {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    fixtures = sorted(name for name in os.listdir(fixture_dir)
                      if name.endswith(CXX_SUFFIXES))
    if not fixtures:
        print("nrn_lint: fixture directory is empty", file=sys.stderr)
        return 1
    for name in fixtures:
        full = os.path.join(fixture_dir, name)
        with open(full, encoding="utf-8") as handle:
            text = handle.read()
        expected = sorted(EXPECT.findall(text))
        violations = lint_file(name, text)
        violations.extend(check_format_versions([(name, text)]))
        actual = sorted(v.rule for v in violations)
        if actual != expected:
            failures += 1
            print(f"nrn_lint self-test FAIL {name}: expected {expected or ['<clean>']},"
                  f" got {actual or ['<clean>']}", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
        else:
            print(f"nrn_lint self-test ok   {name}: "
                  f"{', '.join(expected) if expected else 'clean'}")
    if failures:
        print(f"nrn_lint self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 1
    print(f"nrn_lint self-test: {len(fixtures)} fixtures passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="nrn_lint", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--diff", metavar="REF", default=None,
                        help="also require a format-version bump when the "
                             "diff against REF touches serialization files")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixtures under tests/lint_fixtures/ "
                             "against their embedded expectations")
    parser.add_argument("files", nargs="*",
                        help="explicit files to lint (default: src/ tools/ bench/)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)

    if args.self_test:
        return self_test(root)

    violations = run_lint(root, args.files, args.diff)
    if violations is None:
        return 2
    for violation in sorted(violations, key=lambda v: (v.path, v.line_no)):
        print(violation)
    if violations:
        rules = sorted({v.rule for v in violations})
        print(f"nrn_lint: {len(violations)} violation(s) [{', '.join(rules)}]",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
