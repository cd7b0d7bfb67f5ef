import importlib
import os
import pkgutil

import mpmath as mp
import pytest

mp.mp.dps = 30


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Keep the constants cache out of the working tree during tests.

    Session-scoped so that module-scoped fixtures (instantiated before any
    function-scoped monkeypatch) see it too.
    """
    path = tmp_path_factory.mktemp("zlab_cache")
    old = os.environ.get("ZLAB_CACHE_DIR")
    os.environ["ZLAB_CACHE_DIR"] = str(path)
    yield
    if old is None:
        os.environ.pop("ZLAB_CACHE_DIR", None)
    else:
        os.environ["ZLAB_CACHE_DIR"] = old


@pytest.fixture
def clear_memos():
    """A function that empties the process's window memos (see the README's
    numerical notes), so the next run computes every window afresh: each
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
