"""The lint command line: exit codes, --json, the baseline ratchet."""

import json

from repro.lint.cli import main
from repro.lint.report import render_json, render_text
from repro.lint.runner import run_lint


class TestExitCodes:
    def test_violating_file_exits_nonzero(self, fixtures_dir, capsys):
        code = main([str(fixtures_dir / "safety_violation.py"),
                     "--no-baseline"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REPRO601" in out and "repro lint:" in out

    def test_clean_file_exits_zero(self, fixtures_dir, capsys):
        code = main([str(fixtures_dir / "safety_clean.py"),
                     "--no-baseline"])
        assert code == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        codes = [line.split()[0] for line in
                 capsys.readouterr().out.splitlines()
                 if line.startswith("REPRO")]
        assert codes == ["REPRO101", "REPRO102", "REPRO103", "REPRO201",
                         "REPRO501", "REPRO601", "REPRO602", "REPRO604"]

    def test_select_flag(self, fixtures_dir, capsys):
        code = main([str(fixtures_dir / "safety_violation.py"),
                     "--no-baseline", "--select", "REPRO604"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REPRO604" in out and "REPRO601" not in out

    def test_select_prefix_matching_no_rule_exits_2(self, fixtures_dir,
                                                    capsys):
        code = main([str(fixtures_dir / "safety_violation.py"),
                     "--no-baseline", "--select", "REPRO1,REPRO999"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'REPRO999'" in captured.err
        assert "'REPRO1'" not in captured.err
        assert "REPRO604" in captured.err   # the registered codes


class TestJsonOutput:
    def test_shape(self, fixtures_dir, capsys):
        main([str(fixtures_dir / "safety_violation.py"),
              "--no-baseline", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["n_files"] == 1
        assert payload["counts"]["new"] == len(payload["findings"])
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "code", "message", "rule"}


class TestBaselineRatchet:
    def _seed_repo(self, tmp_path, violating=True):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        src = tmp_path / "src"
        src.mkdir(exist_ok=True)
        body = "def f(x=[]):\n    return x\n" if violating \
            else "def f(x=None):\n    return x\n"
        (src / "grown.py").write_text(body)

    def test_update_then_gate_then_stale(self, tmp_path, monkeypatch,
                                         capsys):
        self._seed_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([]) == 1                       # new finding fails
        assert main(["--baseline-update"]) == 0    # ratchet it in
        assert (tmp_path / "lint_baseline.json").is_file()
        assert main([]) == 0                       # now grandfathered
        capsys.readouterr()
        self._seed_repo(tmp_path, violating=False)
        assert main(["--verbose"]) == 0            # fixed: stale entry
        assert "stale baseline" in capsys.readouterr().out


class TestReporters:
    def test_render_text_counts_line(self, fixtures_dir):
        result = run_lint(paths=[fixtures_dir / "safety_violation.py"],
                          use_baseline=False)
        text = render_text(result)
        assert text.splitlines()[-1].startswith("repro lint: 3 findings")

    def test_render_json_round_trips(self, fixtures_dir):
        result = run_lint(paths=[fixtures_dir / "safety_clean.py"],
                          use_baseline=False)
        assert json.loads(render_json(result))["ok"] is True
