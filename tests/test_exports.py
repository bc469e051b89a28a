from types import ModuleType

import selfred


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(selfred).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(selfred.__all__) == len(set(selfred.__all__))
    assert set(selfred.__all__) == public
