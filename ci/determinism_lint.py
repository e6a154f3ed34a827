#!/usr/bin/env python3
"""Repo-specific determinism lint for the sqvae serve/train contract.

Bit-reproducibility is the repo's core guarantee: a response is a pure
function of (model parameters, endpoint, payload, request seed), and a
training run is a pure function of its seeds. This checker bans the
constructs that silently break that contract and that neither the
compiler nor TSan can catch:

  banned-random    rand()/srand(), wall-clock time() as a value source,
                   and default-constructed std::random_device -- all
                   nondeterministic seeds. Use sqvae::Rng with an
                   explicit seed (src/common/rng.h).
  unordered-iter   range-for iteration over a declared std::unordered_map
                   / std::unordered_set. Iteration order is
                   implementation-defined, so any result built from it is
                   not reproducible across libstdc++ versions (or even
                   across runs, with per-process hash seeding elsewhere).
                   Sort the output, iterate a sorted copy, or annotate why
                   order cannot matter.
  naked-mutex      std::mutex / std::condition_variable / std::lock_guard
                   / std::unique_lock / std::scoped_lock outside
                   src/common/mutex.h. All locking in src/ goes through
                   the annotated sq::Mutex wrappers so the clang
                   -Wthread-safety CI lane sees every acquisition.
  naked-parallelism
                   omp_get_max_threads / omp_set_num_threads /
                   omp_in_parallel / std::thread::hardware_concurrency
                   outside src/common/thread_budget.{h,cpp}, and any
                   `#pragma omp parallel` without a num_threads clause.
                   Every team is sized from the calling thread's budget
                   (src/common/thread_budget.h); a thread count read or
                   set anywhere else reopens nested oversubscription.
  future-api       #include <future>, std::future / std::shared_future /
                   std::promise / std::packaged_task / std::async. Work is
                   submitted through one API, InferenceService::submit_cb,
                   whose callback runs on the worker that finished it (or
                   inline); a future adds a second, blocking path and a
                   heap-allocated shared state per request. Tests block
                   through tests/serve_call.h instead.
  number-text      strtod / strtof / strtold, std::stod / stof / stold,
                   atof, max_digits10, and the integer prefix parsers
                   strtol / strtoul / strtoll / strtoull, atoi / atol /
                   atoll and std::stoi / stol / stoll / stoul / stoull
                   outside src/common/number_text.{h,cpp}. Numbers cross
                   between binary and text in one codec (shortest
                   round-trip to_chars, whole-token from_chars, non-finite
                   values only on opt-in); strtod reads a prefix, accepts
                   hex and a leading '+', and folds underflow to 0, the
                   integer parsers read a prefix too ("32k" is 32, "1e6"
                   is 1) and strtoull wraps "-1" to 2^64-1, and stream
                   formatting is 5-7x slower than to_chars.
  stateful-stream  std::atomic in src/qsim/ or src/models/. Simulation and
                   model results are pure functions of their inputs: a
                   stochastic estimate draws its noise from a stream keyed
                   by what its circuit sees, never from a counter. A shared
                   counter there makes a row depend on call order, which
                   forces serial training, breaks resume and blocks
                   coalesced serving. A run-time setting that cannot
                   change a result bit carries a lint-allow.
  orphan-module    a src/**/*.h that no file under src/, cli/, bench/,
                   examples/ or perfbench/ includes, other than its own
                   .cpp. Tests do not count: code that only its tests call
                   is dead weight, and a parser nothing runs still needs
                   fuzzing. Delete the module. This rule looks at the whole
                   tree, so it runs whenever src/ is linted, whatever the
                   other paths are.

Escape hatch: a `// lint-allow(<rule>): reason` comment on the flagged
line or the line directly above suppresses that rule for that line. The
reason is not parsed but is required by convention -- an allow without a
why does not survive review.

Usage:
  python3 ci/determinism_lint.py [--root DIR] [paths...]   # default: src/
  python3 ci/determinism_lint.py --self-test

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

from __future__ import annotations

import argparse
import pathlib
import posixpath
import re
import sys
import tempfile

# src/common/mutex.h is the single sanctioned point of contact with the
# std primitives (the thing naked-mutex exists to protect).
NAKED_MUTEX_EXEMPT = ("src/common/mutex.h",)

# src/common/thread_budget.{h,cpp} own the process thread count and every
# team size (the thing naked-parallelism exists to protect).
NAKED_PARALLELISM_EXEMPT = ("src/common/thread_budget.h",
                            "src/common/thread_budget.cpp")

# src/common/number_text.{h,cpp} own every double <-> text conversion (the
# thing number-text exists to protect).
NUMBER_TEXT_EXEMPT = ("src/common/number_text.h",
                      "src/common/number_text.cpp")

# Result-bearing simulation code, where stateful-stream applies.
STATEFUL_STREAM_DIRS = ("src/qsim/", "src/models/")

# Trees whose includes keep a src/ header alive for orphan-module (tests/
# is deliberately absent).
ORPHAN_INCLUDERS = ("src", "cli", "bench", "examples", "perfbench")

ALLOW_RE = re.compile(r"//\s*lint-allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

BANNED_RANDOM_PATTERNS = [
    # rand()/srand() from <cstdlib>: global hidden state, no seed contract.
    (re.compile(r"(?<![\w:.])s?rand\s*\(\s*\)"), "rand()/srand()"),
    # time(nullptr)-style wall-clock reads used as values/seeds.
    (re.compile(r"(?<![\w:.])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr)"),
    # Default-constructed random_device: nondeterministic entropy source.
    (re.compile(r"std::random_device\s+\w+\s*[;{(=]"),
     "std::random_device"),
    (re.compile(r"std::random_device\s*[{(]\s*[)}]"),
     "std::random_device"),
]

NAKED_MUTEX_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

THREAD_COUNT_RE = re.compile(
    r"\b(?:omp_get_max_threads|omp_set_num_threads|omp_in_parallel|"
    r"hardware_concurrency)\b")

OMP_PARALLEL_RE = re.compile(r"^\s*#\s*pragma\s+omp\s+parallel\b")

FUTURE_API_RE = re.compile(
    r"^\s*#\s*include\s*<future>|"
    r"\bstd::(?:future|shared_future|promise|packaged_task|async)\b")
NUM_THREADS_RE = re.compile(r"\bnum_threads\s*\(")

ATOMIC_RE = re.compile(r"\bstd::atomic\w*")

NUMBER_TEXT_RE = re.compile(
    r"\b(?:strto(?:d|f|ld|l|ul|ll|ull)|sto(?:d|f|ld|i|l|ll|ul|ull)|"
    r"ato(?:f|i|l|ll)|max_digits10)\b")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")

# Range-for headers; the capture is the range expression. Single-line
# statements only -- multi-line for headers are rare in this codebase and
# clang-format keeps them that way.
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*\([^()]*\))?([^;()]*)\)")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so line numbers survive. Good enough for a lint: raw
    strings and trigraphs are not handled (none exist in this repo)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                break
            i = j  # keep the newline
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def balanced_template_end(text: str, start: int) -> int:
    """Index just past the '>' matching the '<' at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def harvest_unordered_names(stripped: str) -> set[str]:
    """Names of variables/fields declared with an unordered container
    type, across the whole file set (headers declare, sources iterate)."""
    names = set()
    for match in UNORDERED_DECL_RE.finditer(stripped):
        open_angle = stripped.index("<", match.start())
        end = balanced_template_end(stripped, open_angle)
        if end < 0:
            continue
        # After the template args: cv/ref noise, then the declared name.
        tail = stripped[end:end + 160]
        m = re.match(r"[\s&*]*(?:const\s+)?[\s&*]*([A-Za-z_]\w*)\s*"
                     r"(?:[;={(,)]|$)", tail)
        if m:
            names.add(m.group(1))
    return names


def allowed_rules(raw_lines: list[str], lineno: int) -> set[str]:
    """Rules suppressed at 1-based lineno (same line or the line above)."""
    rules: set[str] = set()
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def check_file(rel_path: str, text: str, unordered_names: set[str]):
    """Yields (rule, lineno, message) findings for one file."""
    raw_lines = text.splitlines()
    stripped_lines = strip_comments_and_strings(text).splitlines()
    mutex_exempt = rel_path.replace("\\", "/") in NAKED_MUTEX_EXEMPT
    parallelism_exempt = (rel_path.replace("\\", "/") in
                          NAKED_PARALLELISM_EXEMPT)
    number_text_exempt = rel_path.replace("\\", "/") in NUMBER_TEXT_EXEMPT
    result_bearing = rel_path.replace("\\", "/").startswith(
        STATEFUL_STREAM_DIRS)

    for lineno, line in enumerate(stripped_lines, start=1):
        def allowed(rule: str) -> bool:
            return rule in allowed_rules(raw_lines, lineno)

        for pattern, what in BANNED_RANDOM_PATTERNS:
            if pattern.search(line) and not allowed("banned-random"):
                yield ("banned-random", lineno,
                       f"{what} is nondeterministic; seed a sqvae::Rng "
                       "explicitly (src/common/rng.h)")
                break

        if not mutex_exempt and NAKED_MUTEX_RE.search(line):
            if not allowed("naked-mutex"):
                yield ("naked-mutex", lineno,
                       "use sq::Mutex/sq::MutexLock/sq::CondVar "
                       "(src/common/mutex.h) so -Wthread-safety sees "
                       "this lock")

        if not parallelism_exempt and not allowed("naked-parallelism"):
            m = THREAD_COUNT_RE.search(line)
            if m:
                yield ("naked-parallelism", lineno,
                       f"{m.group(0)} decides parallelism outside the "
                       "thread budget; use sqvae::thread_budget "
                       "(src/common/thread_budget.h)")
            elif OMP_PARALLEL_RE.match(line):
                # A pragma may continue over backslash-ended lines.
                pragma, k = line, lineno
                while pragma.rstrip().endswith("\\") and \
                        k < len(stripped_lines):
                    pragma += stripped_lines[k]
                    k += 1
                if not NUM_THREADS_RE.search(pragma):
                    yield ("naked-parallelism", lineno,
                           "#pragma omp parallel without num_threads(...) "
                           "opens a team of omp_get_max_threads(); size it "
                           "from sqvae::thread_budget")

        if FUTURE_API_RE.search(line) and not allowed("future-api"):
            yield ("future-api", lineno,
                   "submit work through InferenceService::submit_cb with a "
                   "callback; futures add a second, blocking submission "
                   "path")

        if not number_text_exempt and not allowed("number-text"):
            m = NUMBER_TEXT_RE.search(line)
            if m:
                yield ("number-text", lineno,
                       f"{m.group(0)} converts numbers outside the codec; "
                       "use sqvae::number_text (src/common/number_text.h)")

        if result_bearing and ATOMIC_RE.search(line) and \
                not allowed("stateful-stream"):
            yield ("stateful-stream", lineno,
                   "shared state in simulation code makes results depend "
                   "on call order; key streams by their inputs "
                   "(src/qsim/backend.h)")

        for m in RANGE_FOR_RE.finditer(line):
            range_expr = m.group(2) or ""
            if ":" not in range_expr:
                continue
            target = range_expr.rsplit(":", 1)[1]
            idents = IDENT_RE.findall(target)
            if idents and idents[-1] in unordered_names:
                if not allowed("unordered-iter"):
                    yield ("unordered-iter", lineno,
                           f"iteration order over '{idents[-1]}' is "
                           "implementation-defined; sort the result or "
                           "annotate why order cannot matter")


def orphan_headers(root: pathlib.Path) -> list[str]:
    """src/ headers (relative paths) that no file under ORPHAN_INCLUDERS
    includes, other than the header's own .cpp. A quoted include resolves
    against src/ (the library's include root) or the including file's
    directory."""
    headers = {p.relative_to(root).as_posix()
               for p in (root / "src").rglob("*.h")}
    included: set[str] = set()
    for top in ORPHAN_INCLUDERS:
        if not (root / top).is_dir():
            continue
        for f in (root / top).rglob("*"):
            if f.suffix not in (".h", ".cpp"):
                continue
            rel = f.relative_to(root).as_posix()
            text = f.read_text(encoding="utf-8", errors="replace")
            for m in INCLUDE_RE.finditer(text):
                for target in ("src/" + m.group(1), posixpath.normpath(
                        posixpath.join(posixpath.dirname(rel), m.group(1)))):
                    if target in headers and rel != target[:-2] + ".cpp":
                        included.add(target)
    return sorted(headers - included)


def gather_files(root: pathlib.Path, paths: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        path = root / p
        if path.is_file():
            files.append(path)
        else:
            files.extend(sorted(path.rglob("*.h")))
            files.extend(sorted(path.rglob("*.cpp")))
    return sorted(set(files))


def run_lint(root: pathlib.Path, paths: list[str]) -> int:
    files = gather_files(root, paths)
    if not files:
        print(f"determinism_lint: no files under {paths}", file=sys.stderr)
        return 2

    texts = {f: f.read_text(encoding="utf-8", errors="replace")
             for f in files}
    harvested = {f: harvest_unordered_names(strip_comments_and_strings(t))
                 for f, t in texts.items()}

    findings = 0
    for f in files:
        rel = f.relative_to(root).as_posix()
        # Per-translation-unit name scope: the file itself plus its
        # same-stem header (members declared in foo.h, iterated in
        # foo.cpp). A global scope would collide same-named variables of
        # different types across unrelated files.
        unordered_names = set(harvested[f])
        header = f.with_suffix(".h")
        if header != f:
            if header in harvested:
                unordered_names |= harvested[header]
            elif header.is_file():
                unordered_names |= harvest_unordered_names(
                    strip_comments_and_strings(
                        header.read_text(encoding="utf-8",
                                         errors="replace")))
        for rule, lineno, message in check_file(rel, texts[f],
                                                unordered_names):
            print(f"{rel}:{lineno}: [{rule}] {message}")
            findings += 1
    linted = {f.relative_to(root).as_posix() for f in files}
    for header in orphan_headers(root):
        if header not in linted:
            continue
        lines = (root / header).read_text(encoding="utf-8",
                                          errors="replace").splitlines()
        if "orphan-module" in allowed_rules(lines, 1):
            continue
        print(f"{header}:1: [orphan-module] nothing outside tests/ includes "
              "this header; delete the module")
        findings += 1
    if findings:
        print(f"determinism_lint: {findings} finding(s). Fix them or add "
              "'// lint-allow(<rule>): reason' where the construct is "
              "provably sound.", file=sys.stderr)
        return 1
    print(f"determinism_lint: {len(files)} file(s) clean")
    return 0


# ---- self-test -----------------------------------------------------------

SELF_TEST_CASES = [
    # (name, source, declared unordered names, expected rules)
    ("rand", "int x = rand();", set(), {"banned-random"}),
    ("srand", "srand();", set(), {"banned-random"}),
    ("time_null", "auto t = time(nullptr);", set(), {"banned-random"}),
    ("std_time_zero", "auto t = std::time(0);", set(), {"banned-random"}),
    ("random_device", "std::random_device rd;", set(), {"banned-random"}),
    ("random_device_tmp", "auto s = std::random_device{}();", set(),
     {"banned-random"}),
    ("rng_ok", "sqvae::Rng rng(42); rng.uniform();", set(), set()),
    ("strand_ok", "int strand(int);", set(), set()),
    ("time_in_comment", "// call time(nullptr) never", set(), set()),
    ("time_in_string", 'const char* s = "time(nullptr)";', set(), set()),
    ("mutex", "std::mutex mu;", set(), {"naked-mutex"}),
    ("cv", "std::condition_variable cv;", set(), {"naked-mutex"}),
    ("lock_guard", "std::lock_guard<std::mutex> l(m);", set(),
     {"naked-mutex"}),
    ("sq_mutex_ok", "sq::Mutex mu; sq::MutexLock lock(mu);", set(), set()),
    ("mutex_allowed",
     "std::mutex mu;  // lint-allow(naked-mutex): wrapper internals",
     set(), set()),
    ("mutex_allowed_above",
     "// lint-allow(naked-mutex): wrapper internals\nstd::mutex mu;",
     set(), set()),
    ("unordered_iter",
     "std::unordered_map<int, int> table;\n"
     "void f() { for (const auto& [k, v] : table) use(k); }",
     None, {"unordered-iter"}),
    ("unordered_iter_member",
     "for (auto& e : entries_) use(e);", {"entries_"},
     {"unordered-iter"}),
    ("unordered_iter_allowed",
     "// lint-allow(unordered-iter): sorted below\n"
     "for (auto& e : entries_) use(e);", {"entries_"}, set()),
    ("ordered_map_ok",
     "std::map<int, int> table;\n"
     "void f() { for (const auto& [k, v] : table) use(k); }",
     None, set()),
    ("vector_ok", "for (auto& v : values) use(v);", {"entries_"}, set()),
    ("omp_max_threads", "int n = omp_get_max_threads();", set(),
     {"naked-parallelism"}),
    ("omp_set_threads", "omp_set_num_threads(4);", set(),
     {"naked-parallelism"}),
    ("omp_in_parallel", "if (!omp_in_parallel()) go();", set(),
     {"naked-parallelism"}),
    ("hardware_concurrency",
     "int n = std::thread::hardware_concurrency();", set(),
     {"naked-parallelism"}),
    ("pragma_no_num_threads",
     "#pragma omp parallel for schedule(static)\nfor (;;) {}", set(),
     {"naked-parallelism"}),
    ("pragma_region_no_num_threads", "  #pragma omp parallel if (x)", set(),
     {"naked-parallelism"}),
    ("pragma_num_threads_ok",
     "#pragma omp parallel for schedule(static) num_threads(team)", set(),
     set()),
    ("pragma_continued_ok",
     "#pragma omp parallel for \\\n    num_threads(split.team)", set(),
     set()),
    ("pragma_for_ok", "#pragma omp for schedule(static)", set(), set()),
    ("thread_count_in_comment", "// omp_get_max_threads() is banned", set(),
     set()),
    ("parallelism_allowed",
     "int n = omp_get_max_threads();  "
     "// lint-allow(naked-parallelism): reporting only",
     set(), set()),
    ("init_for_ok", "for (int i = 0; i < n; ++i) use(i);", {"entries_"},
     set()),
    ("future_include", "#include <future>", set(), {"future-api"}),
    ("std_future", "std::future<int> f = p.get_future();", set(),
     {"future-api"}),
    ("std_async", "auto f = std::async(work);", set(), {"future-api"}),
    ("future_allowed",
     "std::promise<int> p;  // lint-allow(future-api): adapter for a test",
     set(), set()),
    ("future_in_comment", "// no std::future here", set(), set()),
    ("submit_cb_ok", "service.submit_cb(m, e, x, s, done);", set(), set()),
    ("strtod", "double v = std::strtod(p, &end);", set(), {"number-text"}),
    ("stod", "const double v = std::stod(value);", set(), {"number-text"}),
    ("atof", "double v = atof(p);", set(), {"number-text"}),
    ("max_digits10",
     "os << std::setprecision(std::numeric_limits<double>::max_digits10);",
     set(), {"number-text"}),
    ("number_text_allowed",
     "// lint-allow(number-text): fixed-width report column\n"
     "os << std::setprecision(std::numeric_limits<double>::max_digits10);",
     set(), set()),
    ("codec_ok", "number_text::append(&out, v);", set(), set()),
    ("strtoull", "auto n = std::strtoull(v, &end, 10);", set(),
     {"number-text"}),
    ("strtol", "const long n = strtol(v, &end, 10);", set(),
     {"number-text"}),
    ("atoi", "reps = std::max(1, std::atoi(argv[i] + 7));", set(),
     {"number-text"}),
    ("stoi", "int port = std::stoi(text);", set(), {"number-text"}),
    ("stoull", "auto n = std::stoull(text);", set(), {"number-text"}),
    ("integer_codec_ok", "number_text::parse(text, &count);", set(), set()),
    ("stop_identifier_ok", "bool stole = stolen; stoic();", set(), set()),
    ("stod_in_comment", "// std::stod reads a prefix", set(), set()),
]

# (name, path, source, expected rules)
PATH_CASES = [
    ("mutex_h_exempt", "src/common/mutex.h", "std::mutex mu_;", set()),
    ("thread_budget_exempt", "src/common/thread_budget.cpp",
     "const int n = omp_get_max_threads();", set()),
    ("number_text_exempt", "src/common/number_text.cpp",
     "double v = std::strtod(p, &end);", set()),
    ("stateful_stream_qsim", "src/qsim/backend.h",
     "std::atomic<std::uint64_t> calls_{0};", {"stateful-stream"}),
    ("stateful_stream_models", "src/models/trainer.cpp",
     "static std::atomic<int> epochs_run{0};", {"stateful-stream"}),
    ("stateful_stream_serve_ok", "src/serve/backend.h",
     "std::atomic<std::uint64_t> calls_{0};", set()),
    ("stateful_stream_allowed", "src/qsim/kernels.cpp",
     "// lint-allow(stateful-stream): a run-time setting\n"
     "static std::atomic<std::size_t> threshold{0};", set()),
    ("stateful_stream_include_ok", "src/qsim/kernels.cpp",
     "#include <atomic>", set()),
]


# (name, {path: source}, expected orphan headers), each laid out as a
# temporary tree.
ORPHAN_CASES = [
    ("orphan_header",
     {"src/lib/orphan.h": "int f();",
      "src/lib/orphan.cpp": '#include "lib/orphan.h"\nint f() { return 1; }'},
     ["src/lib/orphan.h"]),
    ("test_only_header",
     {"src/lib/tested.h": "int g();",
      "tests/lib_test.cpp": '#include "lib/tested.h"'},
     ["src/lib/tested.h"]),
    ("cli_includes_header",
     {"src/lib/used.h": "int h();",
      "cli/tool.cpp": '#include "lib/used.h"\nint main() { return h(); }'},
     []),
]


def self_test() -> int:
    failures = 0
    for name, source, names, expected in SELF_TEST_CASES:
        if names is None:
            names = harvest_unordered_names(
                strip_comments_and_strings(source))
        got = {rule for rule, _, _ in
               check_file("src/test.cpp", source, names)}
        if got != expected:
            print(f"self-test FAIL {name}: expected {sorted(expected)}, "
                  f"got {sorted(got)}", file=sys.stderr)
            failures += 1
    # Path-dependent rules: the exemptions must hold for the owning modules
    # themselves, and stateful-stream applies only to simulation code.
    for name, path, source, expected in PATH_CASES:
        got = {rule for rule, _, _ in check_file(path, source, set())}
        if got != expected:
            print(f"self-test FAIL {name}: expected {sorted(expected)}, "
                  f"got {sorted(got)}", file=sys.stderr)
            failures += 1
    # Whole-tree rule: each case is a temporary tree.
    for name, tree, expected in ORPHAN_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for rel, source in tree.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(source + "\n", encoding="utf-8")
            got = orphan_headers(root)
        if got != expected:
            print(f"self-test FAIL {name}: expected {expected}, got {got}",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"determinism_lint self-test: {failures} failure(s)",
              file=sys.stderr)
        return 2
    cases = len(SELF_TEST_CASES) + len(PATH_CASES) + len(ORPHAN_CASES)
    print(f"determinism_lint self-test: {cases} cases ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule tests and exit")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to --root "
                        "(default: src)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(pathlib.Path(args.root).resolve(),
                    args.paths or ["src"])


if __name__ == "__main__":
    sys.exit(main())
