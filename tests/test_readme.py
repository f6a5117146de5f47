"""The README's Python tour, run line by line: each expression with a
``#`` comment is evaluated and its value compared with the first word of
the comment, so the tour cannot drift from the code."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _stated(value, word: str) -> str:
    """value written the way the README writes ``word``: floats to as
    many decimals as the README gives."""
    if isinstance(value, float) and "." in word:
        return f"{value:.{len(word.split('.')[1])}f}"
    return str(value)


def test_readme_tour_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        checked = 0
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            try:
                expr = compile(code, "README.md", "eval")
            except SyntaxError:  # imports and assignments
                exec(code, namespace)
                continue
            word = comment.split()[0].rstrip(",:")
            value = eval(expr, namespace)
            assert _stated(value, word) == word, line
            checked += 1
        assert checked, block
