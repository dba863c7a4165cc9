from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].lower == pytest.approx(1.0)
    assert namespace["report"].upper == pytest.approx(1.0)
    assert capsys.readouterr().out.strip()
