#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a short serve-bulk run twice from the root of the checkout: as is,
which must pass its checks, and with one expected decision digest
deliberately flipped (--corrupt-expected), which must fail them and
exit nonzero. Exits 0 when both behave.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(extra):
    done = subprocess.run([sys.executable, RUN, "--workload", "serve-bulk",
                           "--seed", "7", "--seconds", "1"] + extra,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return done.returncode, result


def main():
    code, result = run([])
    if code != 0 or result.get("correct") is not True:
        print("FAIL: a clean run did not pass its checks (exit %d)" % code)
        return 1
    code, result = run(["--corrupt-expected"])
    if code == 0 or result.get("correct") is not False:
        print("FAIL: a wrong expected digest was not caught (exit %d)"
              % code)
        return 1
    print("ok: clean run passes, a wrong expected digest fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
