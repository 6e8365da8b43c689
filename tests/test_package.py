"""The package's public surface is the union of its modules' __all__ lists."""

import walkmeg
from walkmeg import channel, coins, metrics, momentum, results, search, sphere, walk


def test_package_all_is_the_module_lists_in_import_order():
    modules = (coins, walk, channel, momentum, metrics, search, results, sphere)
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert walkmeg.__all__ == expected
    assert len(set(walkmeg.__all__)) == len(walkmeg.__all__)
    for name in walkmeg.__all__:
        getattr(walkmeg, name)
