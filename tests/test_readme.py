"""The README's Python example runs as written."""

import doctest
import re
from pathlib import Path

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
