import re
from pathlib import Path

import numpy as np

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
