import hyperwit

REMOVED = (
    "bipartition_after_measurement",
    "biseparable_audit",
    "canonical_settings",
    "dense_expectation",
    "detect_family",
    "exact_min_settings",
    "family_projector_count",
    "greedy_min_settings",
    "infinity_norm",
    "permute_vertices",
    "plus_state",
    "product_setting_count",
    "projector_strings",
    "stabilizer_strings",
    "witness_setting_count",
)


def test_export_list_is_sorted_and_resolves():
    names = hyperwit.__all__
    assert list(names) == sorted(set(names))
    for name in names:
        assert getattr(hyperwit, name) is not None, name
    namespace: dict = {}
    exec("from hyperwit import *", namespace)
    assert set(names) <= set(namespace)


def test_helpers_only_tests_called_are_gone():
    for name in REMOVED:
        assert not hasattr(hyperwit, name), name
    assert not set(REMOVED) & set(hyperwit.__all__)
