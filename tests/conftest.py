import importlib
import pkgutil

import mpmath as mp
import pytest

mp.mp.dps = 30


@pytest.fixture
def clear_memos():
    """A function that empties the process's memos and the Gram table (see
    the README's numerical notes), so the next run computes afresh: each
    module-level attribute of a zetalab module that has `cache_clear`."""
    import zetalab

    modules = [importlib.import_module(f"zetalab.{m.name}")
               for m in pkgutil.iter_modules(zetalab.__path__)]
    memos = [f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")]
    assert memos

    def clear():
        for memo in memos:
            memo.cache_clear()

    return clear


def mp_theta(t):
    return mp.siegeltheta(mp.mpf(t))


def mp_z(t):
    return mp.siegelz(mp.mpf(t))


def mp_zeta(s):
    return mp.zeta(mp.mpc(s))
