from breguq.checks import run_property_suite


def test_full_suite_shape():
    results = run_property_suite()
    assert [r for r in results if not r.passed] == []
    assert [r.name for r in results] == (
        [f"dot_test:{name}" for name in ("conv3", "conv5", "restrict", "restrict_conv",
                                         "generated_bank")]
        + [f"projection_oracle:{name}" for name in (
            "box", "l2_ball", "l1_ball", "tv_ball", "box_l1_intersection",
            "box_tv_intersection", "box_l2_intersection", "l1_l2_intersection",
            "box_l1_tv_intersection")]
        + ["gradient_check:generator", "sgld_variance"])
