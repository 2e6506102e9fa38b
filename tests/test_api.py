import types

import mtload
from byte_manifest import README, readme_block


def test_public_names_resolve_and_readme_example_runs():
    missing = [name for name in mtload.__all__ if not hasattr(mtload, name)]
    assert missing == []
    block = readme_block("Library usage", "python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["n_of_t"].shape == (50,)


def test_all_lists_exactly_the_imported_names():
    bound = {name for name, value in vars(mtload).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(mtload.__all__) - {"__version__"} == bound
