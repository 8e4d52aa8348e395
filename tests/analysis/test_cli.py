"""CLI and engine-level tests for ``python -m repro.analysis``."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.__main__ import main
from repro.analysis.engine import collect_files


def _write(tmp_path, rel, code):
    p = tmp_path / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(code))
    return p


DIRTY = """
    import threading
    def f(target):
        threading.Thread(target=target).start()
"""

CLEAN = """
    import threading
    def f(target):
        threading.Thread(target=target, name="w", daemon=True).start()
"""


class TestCLI:
    def test_exit_one_and_human_output_on_findings(self, tmp_path, capsys):
        _write(tmp_path, "pkg/mod.py", DIRTY)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RT002" in out and "mod.py:4" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        _write(tmp_path, "pkg/mod.py", CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "0 finding" in capsys.readouterr().out

    def test_json_format_and_artifact(self, tmp_path, capsys):
        _write(tmp_path, "pkg/mod.py", DIRTY)
        artifact = tmp_path / "findings.json"
        assert main([str(tmp_path / "pkg"), "--format", "json", "--out", str(artifact)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro.analysis"
        assert doc["total"] == 1 and doc["counts"] == {"RT002": 1}
        assert doc["findings"][0]["rule"] == "RT002"
        assert json.loads(artifact.read_text()) == doc

    def test_single_file_argument(self, tmp_path):
        p = _write(tmp_path, "one.py", DIRTY)
        assert main([str(p)]) == 1

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        _write(tmp_path, "broken.py", "def f(:\n")
        assert main([str(tmp_path)]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        # A typo'd path must not lint nothing and pass.
        _write(tmp_path, "pkg/mod.py", CLEAN)
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "pkg"), str(tmp_path / "nosuchdir")])
        assert exc.value.code == 2
        assert "nosuchdir" in capsys.readouterr().err

    def test_writes_nothing_but_the_artifact(self, tmp_path, monkeypatch):
        _write(tmp_path, "pkg/mod.py", DIRTY)
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.rglob("*"))
        assert main(["pkg", "--out", "findings.json"]) == 1
        assert set(tmp_path.rglob("*")) - before == {tmp_path / "findings.json"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RT001", "RT002", "SIM001", "EXC001"):
            assert rule in out


class TestCollectFiles:
    def test_skips_caches_and_non_python(self, tmp_path):
        _write(tmp_path, "a.py", "x = 1\n")
        _write(tmp_path, "sub/b.py", "y = 2\n")
        _write(tmp_path, "__pycache__/c.py", "z = 3\n")
        (tmp_path / "notes.txt").write_text("not python")
        names = sorted(p.name for p in collect_files([str(tmp_path)]))
        assert names == ["a.py", "b.py"]
