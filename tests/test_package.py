import inspect
import re
from pathlib import Path

import maskfuse


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(maskfuse).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(maskfuse.__all__) == public | {"__version__"}
    assert len(maskfuse.__all__) == len(set(maskfuse.__all__))


def test_readme_quick_start_runs_and_prints_what_it_says(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    selected, refined_jf, coarse_jf = capsys.readouterr().out.splitlines()
    assert selected == "(2,)"
    assert float(refined_jf) == 1.0
    assert float(coarse_jf) < 1.0
