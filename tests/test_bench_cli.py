"""Regression tests for the benchmark harness CLI surface.

These shell out to ``benchmarks/run_bench.py`` the way CI does, but
only exercise argument-validation paths that exit before any benchmark
runs, so they stay fast.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN_BENCH = REPO_ROOT / "benchmarks" / "run_bench.py"


def run_bench(*argv):
    return subprocess.run(
        [sys.executable, str(RUN_BENCH), *argv],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestOnlyFlag:
    def test_unknown_case_name_fails_with_catalog(self):
        proc = run_bench("--only", "bogus-case")
        assert proc.returncode == 1
        assert "unknown benchmark case(s)" in proc.stderr
        assert "bogus-case" in proc.stderr
        # The error lists the valid names so the CI matrix is
        # self-diagnosing when a case is renamed.
        assert "scale" in proc.stderr

    def test_mixed_known_and_unknown_still_fails(self):
        proc = run_bench("--only", "scale", "nope")
        assert proc.returncode == 1
        assert "nope" in proc.stderr

    def test_only_rejects_check_combination(self):
        proc = run_bench("--only", "scale", "--check")
        assert proc.returncode == 2
        assert "--only cannot be combined" in proc.stderr

    def test_only_rejects_write_baseline_combination(self):
        proc = run_bench("--only", "scale", "--write-baseline")
        assert proc.returncode == 2
        assert "--only cannot be combined" in proc.stderr


class TestRepeatFlag:
    def test_repeat_must_be_positive(self):
        proc = run_bench("--repeat", "0", "--only", "scale")
        assert proc.returncode == 2
        assert "--repeat must be >= 1" in proc.stderr

    def test_negative_repeat_rejected(self):
        proc = run_bench("--repeat", "-3", "--only", "scale")
        assert proc.returncode == 2
        assert "--repeat must be >= 1" in proc.stderr


class TestSectionCases:
    def test_error_catalog_lists_digest_sections(self):
        # `--only determinism` runs the digest gate beside a timed case,
        # so the catalog in the error message must advertise the section
        # name too.
        proc = run_bench("--only", "bogus-case")
        assert proc.returncode == 1
        assert "determinism" in proc.stderr
        # One shortest-path implementation and one engine: no backend or
        # engine digest section.
        assert "backend_equivalence" not in proc.stderr
        assert "engine_equivalence" not in proc.stderr

    def test_unknown_name_beside_section_still_fails(self):
        proc = run_bench("--only", "determinism", "bogus-case")
        assert proc.returncode == 1
        assert "bogus-case" in proc.stderr
