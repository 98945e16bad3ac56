"""The README's examples print what the README says they print."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from esdsim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# (language, body) of every fenced block, in README order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def _esd_examples():
    # each `esdsim esd` command block and the plain block right under it
    pairs = []
    for (lang, body), (next_lang, output) in zip(BLOCKS, BLOCKS[1:]):
        if lang == "sh" and body.startswith("esdsim esd "):
            assert next_lang == "", body
            pairs.append((shlex.split(body.replace("\\\n", " "))[1:], output))
    return pairs


def test_every_esd_example_prints_the_block_under_it(capsys):
    examples = _esd_examples()
    assert len(examples) >= 2
    for argv, expected in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, argv


def test_library_use_prints_its_comments():
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    # every print line's comment starts with the exact text it prints
    expected = [line.split("#", 1)[1].split(",")[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
