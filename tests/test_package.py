"""The package's public surface."""

import dermfeat


def test_every_exported_name_resolves():
    missing = [name for name in dermfeat.__all__ if not hasattr(dermfeat, name)]
    assert not missing
    assert len(set(dermfeat.__all__)) == len(dermfeat.__all__)
