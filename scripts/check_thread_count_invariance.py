#!/usr/bin/env python3
"""Thread-count invariance of a pooled computation's weights — stdlib only.

Usage:
    check_thread_count_invariance.py <gtest binary> [<gtest case>]

Runs one gtest case twice, with GS_NUM_THREADS=1 and GS_NUM_THREADS=4, and
compares the weights checksum each run records as the gtest property
`weights_checksum`. The case defaults to
NoisyForwardTest.PooledFineTuneWeightsChecksum (gs_runtime_tests), a noisy
fine-tune whose GEMMs run split across the pooled kernel;
ToLowRank.FullRankLeNetFactorsChecksum (gs_core_tests) checks the full-rank
factorisation path, whose largest Gram takes the pooled tile path. Fixed
work partitions must make both bitwise independent of the pool size
(docs/ARCHITECTURE.md, determinism invariants).

Exit code 0 when both runs pass and record equal checksums, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

DEFAULT_TEST = "NoisyForwardTest.PooledFineTuneWeightsChecksum"
THREAD_COUNTS = (1, 4)


def weights_checksum(binary, test, threads):
    """Runs `test` at `threads` pool threads; returns its checksum property."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        result = subprocess.run(
            [binary, f"--gtest_filter={test}",
             f"--gtest_output=json:{report_path}"],
            env=dict(os.environ, GS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, timeout=300,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"GS_NUM_THREADS={threads}: exited {result.returncode}\n"
                f"{result.stdout}{result.stderr}"
            )
        with open(report_path, "r", encoding="utf-8") as f:
            report = json.load(f)
    for suite in report.get("testsuites", []):
        for case in suite.get("testsuite", []):
            if "weights_checksum" in case:
                return case["weights_checksum"]
    raise RuntimeError(f"GS_NUM_THREADS={threads}: {test} recorded no "
                       "weights_checksum (test missing or renamed?)")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    test = argv[2] if len(argv) == 3 else DEFAULT_TEST
    try:
        sums = {t: weights_checksum(argv[1], test, t) for t in THREAD_COUNTS}
    except RuntimeError as error:
        print(f"check_thread_count_invariance: {error}", file=sys.stderr)
        return 1
    report = test + ", " + ", ".join(
        f"GS_NUM_THREADS={t}: {s}" for t, s in sums.items())
    if len(set(sums.values())) != 1:
        print(f"check_thread_count_invariance: MISMATCH ({report})",
              file=sys.stderr)
        return 1
    print(f"check_thread_count_invariance: OK ({report})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
