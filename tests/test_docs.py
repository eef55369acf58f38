"""Documentation-consistency tests.

DESIGN.md's experiment index and EXPERIMENTS.md's bench pointers must
reference files that exist, and every example README advertises must
exist and be listed there.  Docs that drift from the tree fail here, not
in a reader's terminal.  That each example runs as a script is checked
by the "Run every example as a script" step of the ``paper-claims`` CI
job (``.github/workflows/ci.yml``).
"""

import re
from pathlib import Path


REPO = Path(__file__).resolve().parent.parent


def referenced_paths(doc_name, pattern):
    text = (REPO / doc_name).read_text()
    return sorted(set(re.findall(pattern, text)))


class TestDesignDoc:
    def test_exists(self):
        assert (REPO / "DESIGN.md").is_file()

    def test_bench_targets_exist(self):
        for path in referenced_paths("DESIGN.md",
                                     r"benchmarks/\w+\.py"):
            assert (REPO / path).is_file(), f"DESIGN.md references {path}"

    def test_modules_in_inventory_exist(self):
        for dotted in referenced_paths("DESIGN.md", r"`repro\.(\w+)`"):
            assert (REPO / "src" / "repro" / dotted).is_dir() or (
                REPO / "src" / "repro" / f"{dotted}.py"
            ).is_file(), f"DESIGN.md inventory names repro.{dotted}"


class TestExperimentsDoc:
    def test_exists(self):
        assert (REPO / "EXPERIMENTS.md").is_file()

    def test_bench_pointers_exist(self):
        for path in referenced_paths("EXPERIMENTS.md",
                                     r"benchmarks/\w+\.py"):
            assert (REPO / path).is_file(), f"EXPERIMENTS.md references {path}"

    def test_covers_every_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for figure in ("Figure 2(a)", "Figure 2(b)", "Figure 2(c)"):
            assert figure in text


class TestReadme:
    def test_exists(self):
        assert (REPO / "README.md").is_file()

    def test_examples_exist(self):
        for path in referenced_paths("README.md", r"examples/\w+\.py"):
            assert (REPO / path).is_file(), f"README.md references {path}"

    def test_every_example_is_documented(self):
        readme = (REPO / "README.md").read_text()
        for script in sorted((REPO / "examples").glob("*.py")):
            assert f"examples/{script.name}" in readme, (
                f"{script.name} is not listed in README.md"
            )

    def test_cli_commands_exist(self):
        from repro.cli import build_parser
        readme = (REPO / "README.md").read_text()
        known = set()
        parser = build_parser()
        for action in parser._subparsers._group_actions:
            known |= set(action.choices)
        for command in re.findall(r"python -m repro (\w+)", readme):
            assert command in known, f"README shows unknown command {command}"


class TestBenchInventory:
    def test_every_bench_file_in_design_index(self):
        design = (REPO / "DESIGN.md").read_text()
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("test_*.py")):
            if bench.name.startswith("test_perf_"):
                continue  # perf benches are not paper experiments
            assert (f"benchmarks/{bench.name}" in design
                    or f"benchmarks/{bench.name}" in experiments), (
                f"{bench.name} is documented in neither DESIGN.md nor "
                "EXPERIMENTS.md"
            )
