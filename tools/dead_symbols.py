#!/usr/bin/env python3
"""Lists the bees:: functions src/ defines that no binary links.

Run from anywhere:

    python3 tools/dead_symbols.py [BUILD_DIR]

The script configures a throwaway build of every non-test target of the
top-level project (benches, examples, bees_sim, bees_loadgen) and of
perfbench's bees_perfbench binary, compiled with
-O0 -fno-inline -ffunction-sections -fdata-sections and linked with
-Wl,--gc-sections, so a function survives in a binary only when something
the binary runs calls it.  It then compares `nm --defined-only` of the
src/ archives with the symbols left in the linked binaries and prints every
bees:: function no binary contains, minus ALLOWLIST below.

It exits 1 when a function outside the allowlist is unlinked, 0 otherwise.
With BUILD_DIR the build is kept there and reruns are incremental;
without it a temporary directory is used and removed.  A full build takes
about three minutes on four cores.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPILE_FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"

# Functions only tests call that stay on purpose, each with its reason:
#   oracle     - a reference implementation tests compare the live one against
#   round-trip - the decoder (or encoder) of a format whose other half is live;
#                the pair is the round-trip oracle for decoder tests and fuzzing
#   fixture    - state reset or inspection that tests need and binaries do not
ALLOWLIST = {
    "bees::sub::brute_force_maximize":
        "oracle: exact optimum the SSMM greedy is checked against",
    "bees::idx::MinHasher::exact_token_jaccard":
        "oracle: exact Jaccard the MinHash estimate is checked against",
    "bees::idx::DescriptorLsh::table_collision_probability":
        "oracle: closed-form collision curve the LSH tables are checked against",
    "bees::net::decode_chunk_ack":
        "round-trip: decoder of the live kChunkData ack encoder",
    "bees::store::decode_manifest":
        "round-trip: standalone decoder of the live encode_manifest",
    "bees::img::decode_lossless":
        "round-trip: decoder of the live lossless encoder",
    "bees::img::decode_prefix":
        "round-trip: prefix decoder of the live progressive encoder",
    "bees::img::is_progressive":
        "round-trip: format sniffing for the progressive decoder",
    "bees::img::read_pnm":
        "round-trip: reader of the live write_pnm",
    "bees::img::(anonymous namespace)::read_token":
        "round-trip: read_pnm's header tokenizer",
    "bees::net::encode":
        "round-trip: struct encoders whose decoders the server runs",
    "bees::idx::decode_float_index_snapshot":
        "round-trip: decoder of the live float snapshot encoder (shards "
        "read it entry by entry through visit_float_index_snapshot)",
    "bees::obs::MetricsRegistry::reset":
        "fixture: clears the process-wide registry between tests",
    "bees::obs::Tracer::clear":
        "fixture: clears the process-wide tracer between tests",
    "bees::obs::parse_chrome_json":
        "fixture: reads trace files back to check them",
    "bees::obs::(anonymous namespace)::Scanner":
        "fixture: parse_chrome_json's JSON cursor",
    "bees::obs::TraceEvent::TraceEvent":
        "fixture: parse_chrome_json default-constructs each event it reads",
    "bees::store::SegmentStore::compact":
        "fixture: forces the compaction the store triggers itself",
    "bees::core::BatchReport::value_of":
        "fixture: looks a report field up by its stable name",
    "bees::img::Image::fill":
        "fixture: builds flat test images",
    "bees::wl::make_burst_like":
        "fixture: builds a burst that mirrors a given one",
}


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=True, **kwargs)


def configure(source, build):
    """Configures `source` into `build` with the census flags."""
    query = build / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    run(["cmake", "-S", str(source), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=",
         f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
        stdout=subprocess.DEVNULL)


def targets(build):
    """Reads (name, type, source dir, artifact path) from the file API."""
    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    model_file = index["reply"]["codemodel-v2"]["jsonFile"]
    model = json.loads((reply / model_file).read_text())
    out = []
    for ref in model["configurations"][0]["targets"]:
        t = json.loads((reply / ref["jsonFile"]).read_text())
        artifacts = t.get("artifacts", [])
        if not artifacts:
            continue
        out.append((t["name"], t["type"], t["paths"]["source"],
                    build / artifacts[0]["path"]))
    return out


def nm_defined(path):
    """Yields (type, mangled name) of every symbol `path` defines."""
    text = run(["nm", "--defined-only", str(path)],
               capture_output=True, text=True).stdout
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3:
            yield parts[1], parts[2]


def is_bees_function(kind, name):
    return kind in "TtWw" and name.startswith(
        ("_ZN4bees", "_ZNK4bees", "_ZZN4bees", "_ZZNK4bees"))


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True, text=True).stdout
    return out.splitlines()


def allowed(demangled):
    """True when `demangled` is an allowlisted function, one of its
    overloads or template instances, a member of an allowlisted class, or a
    lambda inside one of them."""
    for entry in ALLOWLIST:
        if re.search(r"(^|[\s*&])" + re.escape(entry) + r"(\(|<|::)",
                     demangled):
            return True
    return False


def census(work):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    main_build = work / "main"
    configure(ROOT, main_build)
    main_targets = [t for t in targets(main_build)
                    if not t[2].startswith("tests")]
    binaries = [t for t in main_targets if t[1] == "EXECUTABLE"]
    archives = [t for t in main_targets
                if t[1] == "STATIC_LIBRARY" and t[2].startswith("src")]
    run(["cmake", "--build", str(main_build), "-j", jobs, "--target"] +
        [t[0] for t in binaries + archives], stdout=subprocess.DEVNULL)

    perf_build = work / "perfbench"
    configure(ROOT / "perfbench", perf_build)
    run(["cmake", "--build", str(perf_build), "-j", jobs,
         "--target", "bees_perfbench"], stdout=subprocess.DEVNULL)
    linked = [t[3] for t in binaries] + [perf_build / "bees_perfbench"]

    defined = set()
    for archive in archives:
        defined.update(name for kind, name in nm_defined(archive[3])
                       if is_bees_function(kind, name))
    present = set()
    for binary in linked:
        present.update(name for _, name in nm_defined(binary))

    unlinked = sorted(set(demangle(sorted(defined - present))))
    print(f"{len(linked)} binaries, {len(archives)} src archives, "
          f"{len(defined)} bees:: functions defined")
    kept = [d for d in unlinked if allowed(d)]
    dead = [d for d in unlinked if not allowed(d)]
    print(f"{len(kept)} unlinked functions on the allowlist")
    for d in dead:
        print(f"unlinked: {d}")
    return 1 if dead else 0


def main():
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and
                             sys.argv[1].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    if len(sys.argv) == 2:
        work = Path(sys.argv[1]).resolve()
        work.mkdir(parents=True, exist_ok=True)
        return census(work)
    work = Path(tempfile.mkdtemp(prefix="bees-dead-symbols-"))
    try:
        return census(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
