#!/usr/bin/env python3
"""Guard the machine-readable stdout streams of a bench binary.

Checks three invocations of the given bench at --scale 0:

 1. `--json - --trace FILE`  : stdout must be exactly one ptm-bench-v1
    document (tables/status must go to stderr) and FILE a ptm-trace-v1
    stream;
 2. `--trace - --json FILE`  : stdout must be exactly one ptm-trace-v1
    stream and FILE a ptm-bench-v1 document;
 3. `--json - --trace -`     : both streams cannot own stdout -- the
    binary must refuse with exit code 2 and print nothing on stdout.

Both formats are read with ptm_schema's readers.

Usage: check_bench_streams.py PATH_TO_BENCH
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ptm_schema import (read_bench, read_file, read_trace,  # noqa: E402
                        run_json)


def check(bench):
    errors = []
    with tempfile.TemporaryDirectory(prefix="bench_streams_") as tmp:
        trace_path = os.path.join(tmp, "t.jsonl")
        json_path = os.path.join(tmp, "b.json")

        # 1. JSON owns stdout; trace goes to a file.
        _, errs = run_json([bench, "--scale", "0", "--json", "-",
                            "--trace", trace_path], read_bench, "--json -")
        if not errs:
            errs = read_file(trace_path, read_trace, "--json - trace")[1]
        errors += errs

        # 2. Trace owns stdout; JSON goes to a file.
        _, errs = run_json([bench, "--scale", "0", "--trace", "-",
                            "--json", json_path], read_trace, "--trace -")
        if not errs:
            errs = read_file(json_path, read_bench, "--trace - json")[1]
        errors += errs

    # 3. Both on stdout must be refused with exit 2, stdout silent.
    proc = subprocess.run([bench, "--scale", "0", "--json", "-",
                           "--trace", "-"], capture_output=True, text=True)
    if proc.returncode != 2:
        errors.append(f"--json - --trace -: expected exit 2, got "
                      f"{proc.returncode}")
    if proc.stdout.strip():
        errors.append("--json - --trace -: stdout not empty on refusal")
    if "stdout" not in proc.stderr:
        errors.append("--json - --trace -: no diagnostic on stderr")
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = check(sys.argv[1])
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{os.path.basename(sys.argv[1])}: "
          + ("ok" if not errors else f"{len(errors)} error(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
