"""Package namespace.

Core claim:
    - ``from digraph_spectra import *`` succeeds and every name in
      ``__all__`` is an attribute of the package, so no stale export
      is left behind when a public name is removed
"""

import digraph_spectra


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from digraph_spectra import *", namespace)
    missing = [name for name in digraph_spectra.__all__ if not hasattr(digraph_spectra, name)]
    assert missing == []
