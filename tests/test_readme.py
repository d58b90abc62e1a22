import dataclasses
import re
from pathlib import Path

from brightlink import cli, config
from brightlink.channel import ChannelGeometry, ChannelParams
from brightlink.core import ModulationParams

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title):
    """The README's text under the heading `title`, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#)", text,
                     re.DOTALL | re.MULTILINE).group(1)


def test_the_library_example_runs_as_written():
    # The first python block under "## Library example", so the example
    # cannot drift from the API; it asserts its own decode.
    section = README.read_text(encoding="utf-8").split("\n## Library example\n")[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    assert code, "README's library example has no python block"
    exec(compile(code.group(1), f"{README}:library example", "exec"), {})


def test_the_example_config_loads():
    block = re.search(r"^```ini\n(.*?)^```", readme_section("Config format"),
                      re.DOTALL | re.MULTILINE)
    assert block, "README's config format has no ini block"
    built = config.build_config(config.parse_config_text(block.group(1)))
    assert built.region == (8, 8, 48, 32)


def test_the_config_keys_are_the_fields_the_readme_lists():
    text = readme_section("Config format")
    for kind, keys in ((ModulationParams, config._MODULATION_KEYS),
                       (ChannelGeometry, config._GEOMETRY_KEYS),
                       (ChannelParams, config._CAPTURE_KEYS)):
        listed = re.search(rf"`{kind.__name__}`\s+\(([^)]*)\)", text).group(1)
        # "`seed` for `rng_seed`" names a key that sets a field of another name.
        pairs = re.findall(r"`(\w+)`(?:\s+for\s+`(\w+)`)?", listed)
        assert [key for key, _ in pairs] == list(keys), kind.__name__
        fields = {field.name for field in dataclasses.fields(kind)}
        assert {field or key for key, field in pairs} <= fields, kind.__name__


def test_the_exit_codes_are_the_ones_the_cli_returns():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Exit codes: (.*?)\.", text).group(1)
    documented = {int(code): meaning for code, meaning in re.findall(r"(\d+) ([^,]+)", sentence)}
    assert documented == {cli.EXIT_OK: "success", cli.EXIT_USAGE: "usage/config",
                          cli.EXIT_FORMAT: "container format", cli.EXIT_SYNC: "sync failure",
                          cli.EXIT_INTEGRITY: "integrity (CRC) failure",
                          cli.EXIT_PIPELINE: "pipeline error"}
    assert set(documented) == {value for name, value in vars(cli).items()
                               if name.startswith("EXIT_")}
