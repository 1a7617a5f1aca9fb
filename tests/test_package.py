import proofenum


def test_public_names_resolve():
    for name in proofenum.__all__:
        assert hasattr(proofenum, name), name
