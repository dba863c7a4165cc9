import shlex
from pathlib import Path

import pytest

from qnd import cli

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


def test_chain_commands_pass_the_engine_check():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("qnd chain ")]
    engines = set()
    for line in lines:
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        cli._check_engine_options(args)
        engines.add(args.engine)
    assert engines == set(cli._ENGINES)
