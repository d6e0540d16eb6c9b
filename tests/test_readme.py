"""The README's Python example and command lines run as written."""

import doctest
import re
from pathlib import Path

from primfield.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    parser = doctest.DocTestParser()
    example = parser.get_doctest(blocks[0], {}, "README.md", str(README), 0)
    assert len(example.examples) >= 4
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    runner.run(example)
    assert runner.summarize(verbose=False).failed == 0


def readme_commands():
    """Each `primfield ...` line of the Command line and Reproducibility
    sh blocks, trailing `# ...` comment removed."""
    text = README.read_text()
    out = []
    for section in ("## Command line", "### Reproducibility"):
        body = text.split(section, 1)[1]
        block = re.search(r"^```sh\n(.*?)^```", body, re.M | re.S).group(1)
        out += [line.split("#", 1)[0].split() for line in block.splitlines()
                if line.startswith("primfield ")]
    return out


def test_readme_commands(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) == 17
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        err = capsys.readouterr().err
        assert code == 0, (" ".join(argv), err)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
