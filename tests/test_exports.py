import types

import cavitymix


def test_all_lists_exactly_the_public_names():
    # The root imports each name on first use, so resolve every exported
    # name first: only then does it stand in vars(cavitymix).
    exec("from cavitymix import *", {})
    assert set(cavitymix.__all__) <= set(dir(cavitymix))
    for name in dir(cavitymix):
        getattr(cavitymix, name)
    # A deleted function must not leave a stale export behind, and a new
    # public name must be exported on purpose.
    public = {
        name
        for name, value in vars(cavitymix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cavitymix.__all__) == public | {"__version__"}
    assert len(cavitymix.__all__) == len(set(cavitymix.__all__))
    for name in cavitymix.__all__:
        assert hasattr(cavitymix, name)
