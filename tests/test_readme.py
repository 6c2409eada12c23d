"""The README's Python example runs and computes what it says it does."""

import re
import textwrap
from fractions import Fraction
from pathlib import Path

from setavg import bernstein_weights, partition_average

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """The README's ```python blocks, dedented: they may sit in a list item."""
    fences = re.findall(
        r"^( *)```python\n(.*?)^\1```", README.read_text(), re.DOTALL | re.MULTILINE
    )
    return [textwrap.dedent(body) for _, body in fences]


def test_readme_python_example():
    (block,) = python_blocks()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    samples = namespace["samples"]
    assert namespace["values"] == [
        partition_average(samples, bernstein_weights(4, Fraction(k, 8))) for k in range(9)
    ]
