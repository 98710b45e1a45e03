from cubehom.suites import run_suite


def test_run_without_checks_is_not_ok():
    rep = run_suite("cubes.boundary-squared", trials=0, seed=1)
    assert rep["counts"] == {"total": 0, "failed": 0}
    assert rep["ok"] is False


def test_run_with_passing_checks_is_ok():
    rep = run_suite("cubes.boundary-squared", trials=2, seed=1)
    assert rep["counts"] == {"total": 2, "failed": 0}
    assert rep["ok"] is True
