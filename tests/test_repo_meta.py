"""Repo-tooling invariants that scripts alone can't be trusted to keep.

The BENCH_PERF.json staleness gate in scripts/check.sh only watches the
paths listed in its hand-maintained ``ENGINE_PATHS`` array.  A new
``src/repro`` subpackage that never gets added there could change engine
behaviour without the gate demanding a benchmark refresh.  check.sh now
self-checks this at run time; this test enforces the same invariant from
pytest so it fails in ``make test`` too, and additionally pins the shell
array to the actual directory listing so the two can't drift apart.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _engine_paths_from_check_sh() -> set:
    text = (REPO_ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    match = re.search(r"ENGINE_PATHS=\((?P<body>[^)]*)\)", text)
    assert match, "ENGINE_PATHS array not found in scripts/check.sh"
    return set(match.group("body").split())


def _repro_subpackages() -> set:
    src = REPO_ROOT / "src" / "repro"
    return {f"src/repro/{child.name}" for child in src.iterdir()
            if child.is_dir() and child.name != "__pycache__"}


def test_engine_paths_cover_every_repro_subpackage():
    engine_paths = _engine_paths_from_check_sh()
    missing = sorted(_repro_subpackages() - engine_paths)
    assert not missing, (
        f"scripts/check.sh ENGINE_PATHS misses {missing}; the BENCH_PERF "
        "staleness gate would silently ignore engine changes there — add "
        "the package(s) to the array")


def test_engine_paths_exist():
    """The converse: every listed path must exist, so a rename can't leave
    a dangling entry that watches nothing."""
    for entry in sorted(_engine_paths_from_check_sh()):
        assert (REPO_ROOT / entry).exists(), (
            f"ENGINE_PATHS entry {entry} does not exist in the tree")


def test_check_sh_runs_reprolint():
    text = (REPO_ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    assert "repro.analysis.lint" in text, (
        "scripts/check.sh no longer runs reprolint; the static contract "
        "gate would be silently dropped from make check")


def test_check_sh_runs_paper_experiments():
    """The E1-E14 benches are only collected when named explicitly."""
    text = (REPO_ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    assert "pytest -q benchmarks/bench_e*.py" in text, (
        "scripts/check.sh no longer runs the paper experiments")


def test_ci_runs_reprolint():
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    assert "make lint" in text or "repro.analysis.lint" in text, (
        ".github/workflows/ci.yml no longer runs reprolint")
