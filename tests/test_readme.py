"""The README library session runs as written, and the README's config keys
and flags are the command line's key table."""

import json
import re
from pathlib import Path

from xepecs import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_session_prints_the_entropy(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("0.8112781")


def test_config_file_block_is_the_key_table():
    section = README.read_text().split("\n### Config file\n")[1]
    block = re.search(r"^```json\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)
    documented = list(json.loads(block).items())
    assert documented == [(key, default) for key, (default, _, _) in cli._CONFIG_KEYS.items()]


def test_flag_table_is_the_key_table_plus_config_out_format():
    table = README.read_text().split("\n| flag | meaning |\n| --- | --- |\n")[1].split("\n\n")[0]
    documented = [flag for row in table.splitlines()
                  for flag in re.findall(r"`(--[a-z0-9]+)", row.split(" | ")[0])]
    flags = [f"--{flag}" for _, flag, _ in cli._CONFIG_KEYS.values() if flag is not None]
    assert documented == ["--config", *flags, "--out", "--format"]
