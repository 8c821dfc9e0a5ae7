from phl.suites import (
    definable_fixpoint_suite,
    probe_property_suite,
    sigma_invariant_suite,
)


def test_probe_property_suite_is_clean():
    rep = probe_property_suite(seed=20250814)
    assert rep.ok, rep.failures
    assert rep.instances >= 200


def test_definable_fixpoint_suite_covers_at_least_five_pairs():
    rep = definable_fixpoint_suite(seed=20250814)
    assert rep.ok, rep.failures
    assert rep.instances >= 5


def test_sigma_invariant_suite_is_clean():
    rep = sigma_invariant_suite(seed=20250814)
    assert rep.ok, rep.failures
    assert rep.instances > 0


def test_suites_are_seed_deterministic():
    a = probe_property_suite(seed=7)
    b = probe_property_suite(seed=7)
    assert (a.instances, a.failures) == (b.instances, b.failures)
    c = [suite(seed=20250814) for suite in (probe_property_suite, definable_fixpoint_suite,
                                            sigma_invariant_suite)]
    assert [r.name for r in c] == ["probe-properties", "definable-fixpoints",
                                   "sigma-invariants"]
    assert all(r.ok for r in c)
