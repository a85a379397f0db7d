"""Tests of the determinism lint (scripts/lint_determinism.py).

The lint is a CI gate, so both directions matter: the shipped tree must
be clean, and the checks must actually fire on known hazards.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "scripts" / "lint_determinism.py"

sys.path.insert(0, str(REPO / "scripts"))
from lint_determinism import lint_file  # noqa: E402


def findings_for(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [f.check for f in lint_file(path, tmp_path)]


class TestChecks:
    def test_unseeded_random_call(self, tmp_path):
        checks = findings_for(
            tmp_path, "injection/foo.py", "import random\nx = random.randint(0, 3)\n"
        )
        assert "unseeded-random" in checks

    def test_unseeded_random_import(self, tmp_path):
        checks = findings_for(tmp_path, "analysis/foo.py", "from random import choice\n")
        assert "unseeded-random" in checks

    def test_seeded_random_is_fine(self, tmp_path):
        checks = findings_for(
            tmp_path,
            "injection/foo.py",
            "import random\nrng = random.Random(7)\nx = rng.randint(0, 3)\n",
        )
        assert checks == []

    def test_wall_clock_outside_whitelist(self, tmp_path):
        checks = findings_for(tmp_path, "injection/foo.py", "import time\nt = time.time()\n")
        assert "wall-clock" in checks

    def test_wall_clock_whitelisted_module(self, tmp_path):
        checks = findings_for(
            tmp_path, "orchestration/store.py", "import time\nt = time.time()\n"
        )
        assert checks == []

    def test_perf_counter_is_always_fine(self, tmp_path):
        checks = findings_for(
            tmp_path, "injection/foo.py", "import time\nt = time.perf_counter()\n"
        )
        assert checks == []

    def test_set_iteration_in_fingerprinted_path(self, tmp_path):
        source = "a = {1}\nb = {2}\nout = [x for x in set(a) | set(b)]\n"
        checks = findings_for(tmp_path, "injection/foo.py", source)
        assert "unordered-set-iteration" in checks

    def test_sorted_set_iteration_is_fine(self, tmp_path):
        source = "a = {1}\nout = [x for x in sorted(set(a))]\n"
        assert findings_for(tmp_path, "injection/foo.py", source) == []

    def test_records_digest_script_is_a_fingerprinted_path(self, tmp_path):
        # its digests are compared across versions, so the lint covers it
        from lint_determinism import SCRIPTS

        assert "scripts/records_digest.py" in SCRIPTS
        source = "out = [x for x in {1, 2, 3}]\n"
        checks = findings_for(tmp_path, "scripts/records_digest.py", source)
        assert checks == ["unordered-set-iteration"]

    def test_set_iteration_outside_fingerprinted_path_is_fine(self, tmp_path):
        source = "out = [x for x in {1, 2, 3}]\n"
        assert findings_for(tmp_path, "analysis/foo.py", source) == []


class TestCommandLine:
    def test_shipped_tree_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(LINT)],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_exit_code_on_finding(self, tmp_path):
        bad = tmp_path / "injection"
        bad.mkdir()
        (bad / "bad.py").write_text("import random\nx = random.random()\n")
        result = subprocess.run(
            [sys.executable, str(LINT), "--root", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "unseeded-random" in result.stdout

    def test_scripts_of_the_checkout_are_linted(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        script = tmp_path / "scripts" / "records_digest.py"
        script.parent.mkdir()
        script.write_text("out = [x for x in {1, 2, 3}]\n")
        result = subprocess.run(
            [sys.executable, str(LINT), "--root", str(package)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "records_digest.py:1: [unordered-set-iteration]" in result.stdout

    def test_missing_root_is_an_error(self, tmp_path):
        result = subprocess.run(
            [sys.executable, str(LINT), "--root", str(tmp_path / "nope")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
