import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    # the ```python block alone: run over the whole file, doctest would read
    # the closing fence as expected output
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    line = text.count("\n", 0, block.start(1))
    test = doctest.DocTestParser().get_doctest(
        block.group(1), {}, "README.md", str(README), line
    )
    result = doctest.DocTestRunner().run(test)
    assert result.attempted > 0
    assert result.failed == 0
