import aspcount


def test_export_list_resolves():
    names = aspcount.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(aspcount, name), name
    namespace = {}
    exec("from aspcount import *", namespace)
    assert set(names) <= namespace.keys()
