"""Doctest-run the README quickstart snippets so the examples cannot rot.

Every fenced ``python`` block in the top-level README that contains
doctest prompts is executed, in order, with shared globals (later blocks
may build on earlier ones — exactly how a reader would paste them into a
REPL).  A README edit that breaks an example fails CI here.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_doctest_snippets():
    blocks = [block for block in _python_blocks() if ">>>" in block]
    assert len(blocks) >= 4, "README lost its quickstart snippets"


def test_readme_snippets_execute():
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    globs: dict = {}
    for number, block in enumerate(_python_blocks()):
        if ">>>" not in block:
            continue
        test = parser.get_doctest(
            block, globs, f"README block {number}", str(README), 0
        )
        runner.run(test, clear_globs=False)
        assert runner.failures == 0, f"README block {number} failed"
        globs.update(test.globs)


def test_readme_mentions_the_cli_surface():
    text = README.read_text()
    for needle in (
        "repro-gfd discover",
        "repro-gfd enforce",
        "repro-gfd cover",
        "--backend",
    ):
        assert needle in text, f"README lost its {needle!r} documentation"
