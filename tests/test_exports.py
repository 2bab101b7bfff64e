"""The package's public names: each export in ``qfrt.__all__`` must exist, so
that deleting a function cannot leave a stale entry behind."""
import qfrt


def test_every_export_resolves_and_star_imports():
    missing = [name for name in qfrt.__all__ if not hasattr(qfrt, name)]
    assert missing == []
    namespace = {}
    exec("from qfrt import *", namespace)
    assert set(qfrt.__all__) <= namespace.keys()
