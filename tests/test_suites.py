from cubehom.suites import get_suite, run_suite, suite_names


def test_run_without_checks_is_not_ok():
    rep = run_suite("cubes.boundary-squared", trials=0, seed=1)
    assert rep["counts"] == {"total": 0, "failed": 0}
    assert rep["ok"] is False


def test_run_with_passing_checks_is_ok():
    rep = run_suite("cubes.boundary-squared", trials=2, seed=1)
    assert rep["counts"] == {"total": 2, "failed": 0}
    assert rep["ok"] is True


def test_every_suite_checks_something_at_its_floor():
    # each suite at the least r and dim it accepts (0 where it names none)
    # and one trial must still check something: a report with no checks,
    # or an exhaustive check that counted none, verifies nothing
    for name in suite_names():
        suite = get_suite(name)
        params = {k: suite.least.get(k, 0) for k in ("r", "dim")
                  if k in suite.defaults}
        if "trials" in suite.defaults:
            params["trials"] = 1
        rep = run_suite(name, **params)
        assert rep["counts"]["total"] > 0, (name, params)
        for check in rep["checks"]:
            detail = check.get("detail")
            if isinstance(detail, dict):
                assert detail.get("checked") != 0, (name, params, check["key"])
