import re
from pathlib import Path

import numpy as np

from tsvarlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    comment = re.search(r"result\.trajectory\.values\[:, 0\]\s+# -> ([\d, ]+)", block)
    expected = [float(x) for x in comment.group(1).split(",")]
    assert expected == [1, 1, 2, 5, 13]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert np.allclose(namespace["result"].trajectory.values[:, 0], expected, rtol=0, atol=1e-10)


def test_readme_usage_block_is_the_help_text(capsys):
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.match(r"\s*```\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == block
