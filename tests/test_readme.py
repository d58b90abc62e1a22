import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_as_written():
    # The first python block under "## Library example", so the example
    # cannot drift from the API; it asserts its own decode.
    section = README.read_text(encoding="utf-8").split("\n## Library example\n")[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    assert code, "README's library example has no python block"
    exec(compile(code.group(1), f"{README}:library example", "exec"), {})
