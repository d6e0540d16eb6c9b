"""The README's Python example and command lines run as written."""

import doctest
import json
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


# display diagnostics that carry bare floats without the _float suffix, as
# README and the cli docstring list them; renaming them changes output bytes
UNLABELLED_FLOATS = {"min_log_margin", "worst_low_margin", "worst_high_margin",
                     "slack", "scaled", "band_lo", "band_hi", "z_worst"}


def float_keys(node, key=None):
    """The keys under which a JSON document holds a float, at any depth."""
    if isinstance(node, float):
        yield key
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from float_keys(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from float_keys(v, key)


def test_readme_reports_hold_floats_only_in_labelled_fields(
        tmp_path, monkeypatch, capsys):
    """Every README command, in JSON where it has a choice, and `irr
    brackets`: each float of each report it writes sits under a *_float
    key or one of the listed diagnostics, and each of those turns up."""
    monkeypatch.chdir(tmp_path)
    commands = [argv[1:] for argv in readme_commands()
                if argv[1] != "replay"]
    commands.append(["irr", "brackets", "--k-lo", "1000", "--k-hi",
                     str(10**30)])
    keys = set()
    for argv in commands:
        if "--format" not in argv:
            argv = argv + ["--format", "json"]
        code = main(argv)
        texts = [capsys.readouterr().out]
        texts += [(tmp_path / argv[i + 1]).read_text()
                  for i, a in enumerate(argv) if a in ("--out", "--report")]
        for text in texts:
            try:
                doc = json.loads(text)
            except ValueError:
                continue        # a set file
            keys |= set(float_keys(doc))
        assert code == 0, argv
    assert {k for k in keys if not k.endswith("_float")} == UNLABELLED_FLOATS
