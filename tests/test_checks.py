from breguq.checks import (run_dot_test_checks, run_gradient_checks,
                           run_projection_oracle_checks, run_property_suite,
                           run_sgld_variance_check)


def test_dot_test_family_passes():
    results = run_dot_test_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = {r.name for r in results}
    assert {"dot_test:identity", "dot_test:scale", "dot_test:conv5",
            "dot_test:restrict_conv", "dot_test:generated_bank"} <= names


def test_projection_oracle_family_passes():
    results = run_projection_oracle_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert [r.name.split(":")[1] for r in results] == [
        "box", "l2_ball", "l1_ball", "tv_ball", "box_l1_intersection",
        "box_tv_intersection", "box_l2_intersection", "l1_l2_intersection",
        "box_l1_tv_intersection"]


def test_gradient_family_passes():
    (result,) = run_gradient_checks()
    assert result.passed, result.detail


def test_sgld_variance_family_passes():
    (result,) = run_sgld_variance_check()
    assert result.passed, result.detail


def test_full_suite_shape():
    results = run_property_suite()
    assert all(r.passed for r in results)
    assert len(results) >= 12
