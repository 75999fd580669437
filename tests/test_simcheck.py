"""Golden-file tests for the ``simcheck`` static pass.

Each SIM rule gets a positive fixture (violations detected at the right
lines), plus shared fixtures proving suppression comments and the
SIM001 allowlist work.  The shipped ``src/repro`` tree must lint clean
— that is the CI contract for ``repro lint``.
"""

import json
import os

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.simcheck import is_allowlisted, iter_python_files, run
from repro.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures", "simcheck")
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro")


def lint_fixture(name, **kw):
    return lint_paths([os.path.join(FIXTURES, name)], **kw)


def codes(findings):
    return [f.code for f in findings]


class TestRulePositives:
    def test_sim001_wall_clock(self):
        findings = lint_fixture("sim001_wallclock.py")
        assert codes(findings) == ["SIM001", "SIM001", "SIM001"]
        assert [f.line for f in findings] == [8, 9, 10]
        assert "time.time()" in findings[0].message
        assert "datetime.now()" in findings[2].message

    def test_sim002_unseeded_random(self):
        findings = lint_fixture("sim002_random.py")
        assert codes(findings) == ["SIM002", "SIM002", "SIM002"]
        assert [f.line for f in findings] == [7, 8, 9]
        assert "without a seed" in findings[1].message

    def test_sim003_unordered_scheduling(self):
        findings = lint_fixture("sim003_unordered.py")
        assert codes(findings) == ["SIM003", "SIM003"]
        # The sorted() loop at the bottom must not be flagged.
        assert [f.line for f in findings] == [5, 7]

    def test_sim004_uncancelled_tokens(self):
        findings = lint_fixture("sim004_tokens.py")
        assert codes(findings) == ["SIM004", "SIM004"]
        messages = " ".join(f.message for f in findings)
        assert "_probe" in messages
        assert "discarded" in messages
        # CleanEngine cancels in stop() and must not appear.
        assert all("CleanEngine" not in f.message for f in findings)

    def test_sim005_pool_without_release(self):
        findings = lint_fixture("sim005_pool.py")
        assert codes(findings) == ["SIM005"]
        assert "LeakySender" in findings[0].message

    def test_sim006_swallowed_errors(self):
        findings = lint_fixture("sim006_except.py")
        assert codes(findings) == ["SIM006", "SIM006"]
        # All three handlers in fine() are acceptable.
        assert max(f.line for f in findings) < 15

    def test_sim007_module_level_counters(self):
        findings = lint_fixture("sim007_counter.py")
        assert codes(findings) == ["SIM007"] * 4
        # Counters built per owner or per call are not flagged.
        assert [f.line for f in findings] == [7, 8, 9, 10]

    def test_sim000_parse_error(self):
        findings = lint_source("broken.py", "def f(:\n    pass\n")
        assert codes(findings) == ["SIM000"]
        assert "syntax error" in findings[0].message


class TestSuppressionAndAllowlist:
    def test_suppressed_fixture_is_clean(self):
        assert lint_fixture("suppressed.py") == []

    def test_clean_fixture_is_clean(self):
        assert lint_fixture("clean.py") == []

    def test_suppression_is_code_specific(self):
        src = "import time\nt = time.time()  # simcheck: ignore[SIM002]\n"
        findings = lint_source("mod.py", src)
        assert codes(findings) == ["SIM001"]

    def test_allowlisted_paths(self):
        assert is_allowlisted("src/repro/cli.py")
        assert is_allowlisted("benchmarks/test_fig08_hashtable.py")
        assert not is_allowlisted("src/repro/sim/engine.py")

    def test_allowlisted_fixtures_have_no_sim001(self):
        findings = lint_fixture("allowlisted")
        assert "SIM001" not in codes(findings)


class TestDriver:
    def test_select_restricts_rules(self):
        findings = lint_paths([FIXTURES], select=["SIM002"])
        assert set(codes(findings)) == {"SIM002"}

    def test_ignore_drops_rules(self):
        findings = lint_paths([FIXTURES], ignore=["SIM001,SIM002"])
        assert "SIM001" not in codes(findings)
        assert "SIM002" not in codes(findings)
        assert "SIM004" in codes(findings)

    def test_walker_prunes_pycache(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "bad.py").write_text("import time\nt = time.time()\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert files == [str(tmp_path / "ok.py")]

    def test_run_reports_missing_path(self, capsys):
        assert run([os.path.join(FIXTURES, "does_not_exist.py")]) == 2

    def test_json_output_shape(self, capsys):
        assert run([os.path.join(FIXTURES, "sim005_pool.py")], as_json=True) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "SIM005"
        assert set(payload[0]) == {"path", "line", "col", "code", "message", "hint"}


class TestCliIntegration:
    def test_lint_exits_nonzero_on_seeded_violation(self, capsys):
        rc = cli_main(["lint", os.path.join(FIXTURES, "sim001_wallclock.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SIM001" in out and "hint:" in out

    def test_lint_exits_zero_on_clean_input(self, capsys):
        rc = cli_main(["lint", os.path.join(FIXTURES, "clean.py")])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_shipped_tree_is_simcheck_clean(self):
        findings = lint_paths([SRC_REPRO])
        assert findings == [], "\n".join(f.render() for f in findings)

    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    def test_lint_filter_flags(self, flag, capsys):
        rc = cli_main(["lint", flag, "SIM006",
                       os.path.join(FIXTURES, "sim006_except.py")])
        capsys.readouterr()
        assert rc == (1 if flag == "--select" else 0)
