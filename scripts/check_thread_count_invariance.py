#!/usr/bin/env python3
"""Thread-count invariance of nonideal-aware training — stdlib only.

Usage:
    check_thread_count_invariance.py <gs_runtime_tests binary>

Runs the NoisyForwardTest.PooledFineTuneWeightsChecksum case twice, with
GS_NUM_THREADS=1 and GS_NUM_THREADS=4, and compares the trained-weights
checksum each run records as a gtest property. The fine-tune's GEMMs are
large enough to run split across the pooled kernel, whose fixed row-block
partition must make the trained weights bitwise independent of the pool size
(docs/ARCHITECTURE.md, determinism invariants).

Exit code 0 when both runs pass and record equal checksums, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

TEST = "NoisyForwardTest.PooledFineTuneWeightsChecksum"
THREAD_COUNTS = (1, 4)


def weights_checksum(binary, threads):
    """Runs TEST at `threads` pool threads; returns its checksum property."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        result = subprocess.run(
            [binary, f"--gtest_filter={TEST}",
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
    raise RuntimeError(f"GS_NUM_THREADS={threads}: {TEST} recorded no "
                       "weights_checksum (test missing or renamed?)")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        sums = {t: weights_checksum(argv[1], t) for t in THREAD_COUNTS}
    except RuntimeError as error:
        print(f"check_thread_count_invariance: {error}", file=sys.stderr)
        return 1
    report = ", ".join(f"GS_NUM_THREADS={t}: {s}" for t, s in sums.items())
    if len(set(sums.values())) != 1:
        print(f"check_thread_count_invariance: MISMATCH ({report})",
              file=sys.stderr)
        return 1
    print(f"check_thread_count_invariance: OK ({report})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
