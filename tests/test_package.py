import inspect

import maskfuse


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(maskfuse).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(maskfuse.__all__) == public | {"__version__"}
    assert len(maskfuse.__all__) == len(set(maskfuse.__all__))
