import re
import types
from pathlib import Path

import mtload

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_readme_example_runs():
    missing = [name for name in mtload.__all__ if not hasattr(mtload, name)]
    assert missing == []
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library usage\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["n_of_t"].shape == (50,)


def test_all_lists_exactly_the_imported_names():
    bound = {name for name, value in vars(mtload).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(mtload.__all__) - {"__version__"} == bound
