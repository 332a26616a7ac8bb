#!/usr/bin/env python3
"""Census of the src/ functions that no shipping binary links.

    scripts/census.py [--check scripts/census_survivors.txt]

Builds the repository into build-census/ and the end-to-end benchmark
(bench_e2e/) into build-census-e2e/ beside it, both at -O0 with
-ffunction-sections -fdata-sections and linked with -Wl,--gc-sections.
At -O0 nothing is inlined, so every call stays a call, and with one
section per function the linker keeps a function only if a kept
function calls it or takes its address.

The shipping binaries are every executable the build tree holds under
bench/, examples/ and tools/, plus bench_e2e's e2e and e2e_selftest;
the test binaries are every executable under tests/. A function
counts if it is a global text symbol (nm type T) of one of the
libsw_*.a libraries. The census prints, demangled, each such function
that no shipping binary keeps, tagged test-only (some test binary
keeps it) or unreached (none does), then a summary line.

--check FILE exits non-zero unless FILE lists exactly the unreached
functions: one per line, the name as printed here, then " -- " and
the reason it stays. It fails when an unreached function is not
listed, when a listed one is reached again or no longer defined, or
when a line gives no reason. Blank lines and lines starting with #
are ignored.

Blind spots:
  - a virtual function is kept whenever its class's vtable is, so an
    override nothing calls still counts as reached;
  - header-inline functions and templates are weak symbols (W), emitted
    where they are used, and are not counted at all;
  - so are functions with internal linkage (static, anonymous
    namespace; nm type t).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-census")
BUILD_E2E = os.path.join(ROOT, "build-census-e2e")
SHIPPING_DIRS = ("bench", "examples", "tools")
TEXT_TYPES = set("TtWw")
RANK = ("unreached", "test-only", "reached")

CONFIGURE = [
    "-DCMAKE_BUILD_TYPE=Release",
    # Release's NDEBUG as the shipping builds have it, but no inlining.
    "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def build(source, tree):
    """Configure @tree from @source once, then build it incrementally."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", tree] + CONFIGURE)
    steps.append(["cmake", "--build", tree, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("census: build failed: " + " ".join(cmd))


def executables(top):
    """Every ELF executable under @top, skipping CMake's own files."""
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if not os.access(path, os.X_OK):
                continue
            with open(path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(path)
    return sorted(found)


def symbols(path, types):
    """Mangled names of @path's defined symbols whose nm type is in @types."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in types:
            names.add(fields[2])
    return names


def demangle(names):
    """Map each mangled name to its demangled form."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(zip(names, out.splitlines()))


def census():
    """Return ({demangled function: tag}, number of shipping binaries)."""
    build(ROOT, BUILD)
    build(os.path.join(ROOT, "bench_e2e"), BUILD_E2E)
    libraries = [os.path.join(dirpath, name)
                 for dirpath, _, filenames in os.walk(BUILD)
                 for name in filenames
                 if name.startswith("libsw_") and name.endswith(".a")]
    defined = set()
    for lib in libraries:
        defined |= symbols(lib, {"T"})
    shipping = [exe for d in SHIPPING_DIRS
                for exe in executables(os.path.join(BUILD, d))]
    shipping += [os.path.join(BUILD_E2E, name)
                 for name in ("e2e", "e2e_selftest")]
    reached = set()
    for exe in shipping:
        reached |= symbols(exe, TEXT_TYPES)
    tested = set()
    for exe in executables(os.path.join(BUILD, "tests")):
        tested |= symbols(exe, TEXT_TYPES)

    # Constructor and destructor variants (C1/C2, D1/D2) demangle to one
    # name; a function is as reached as its most reached variant.
    functions = {}
    for mangled, name in demangle(defined).items():
        tag = ("reached" if mangled in reached else
               "test-only" if mangled in tested else "unreached")
        functions[name] = max(functions.get(name, tag), tag, key=RANK.index)
    return functions, len(shipping)


def read_survivors(path):
    """{name: reason} from a survivors file; exits on a malformed line."""
    survivors = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" -- ")
            if not sep or not reason.strip():
                sys.exit("census: %s:%d gives no reason" % (path, number))
            survivors[name.strip()] = reason.strip()
    return survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="fail unless FILE lists exactly the "
                             "unreached functions, each with a reason")
    args = parser.parse_args()

    functions, binaries = census()
    unreached = {name: tag for name, tag in functions.items()
                 if tag != "reached"}
    for name in sorted(unreached):
        print("%-9s  %s" % (unreached[name], name))
    test_only = sum(tag == "test-only" for tag in unreached.values())
    print("census: %d of %d out-of-line src/ functions are linked into "
          "none of %d shipping binaries (%d test-only, %d unreached)"
          % (len(unreached), len(functions), binaries, test_only,
             len(unreached) - test_only))
    if not args.check:
        return 0

    survivors = read_survivors(args.check)
    failures = ["not listed: " + name
                for name in sorted(set(unreached) - set(survivors))]
    for name in sorted(set(survivors) - set(unreached)):
        failures.append(("reached again: " if name in functions
                         else "gone: ") + name)
    for line in failures:
        print("census: " + line, file=sys.stderr)
    if failures:
        print("census: --check failed (%d)" % len(failures), file=sys.stderr)
        return 1
    print("census: --check passed: every unreached function is listed "
          "in %s" % os.path.relpath(args.check, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
