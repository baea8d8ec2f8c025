import re
import warnings

import numpy as np

from pointtomo.plotting import sweep_plot_svg


def test_whiskers_span_the_bootstrap_columns():
    # per N, a whisker runs from the lowest boot_low to the highest boot_high of
    # its trials, not over the 5%-95% quantiles of the trial infidelities
    trials = [(0.02, 0.008, 0.05), (0.03, 0.01, 0.09), (0.04, 0.02, 0.2), (0.05, 0.03, 0.1)]
    table = np.array([(n, t, scale * infid, scale * low, scale * infid, scale * infid,
                       scale * infid, scale * high)
                      for n, scale in ((100, 1.0), (1000, 0.1))
                      for t, (infid, low, high) in enumerate(trials)])
    svg = sweep_plot_svg(table)
    # the mean markers, one decade apart, fix the pixel rows of the log axis
    (_, c1), (_, c2) = [tuple(map(float, m))
                        for m in re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)]

    def row(value):
        return c1 + (np.log10(0.035) - np.log10(value)) * (c2 - c1)

    whiskers = re.findall(r'<line x1="[\d.]+" y1="([\d.]+)" x2="[\d.]+" y2="([\d.]+)" '
                          r'stroke="#1f4e9c"/>', svg)
    assert len(whiskers) == 2
    for (y1, y2), scale in zip(whiskers, (1.0, 0.1)):
        assert abs(float(y1) - row(scale * 0.008)) < 0.5
        assert abs(float(y2) - row(scale * 0.2)) < 0.5
        assert abs(float(y1) - row(scale * np.quantile([0.02, 0.03, 0.04, 0.05], 0.05))) > 20


def test_all_zero_trials_without_bootstrap_stay_on_the_axis():
    # every trial at N = 1000 hit the truth and no trial has bootstrap columns:
    # both whisker ends are floored at the axis, without a numpy warning
    table = np.array([(n, t, infid) + (np.nan,) * 5 for n, infids in
                      ((100, (0.02, 0.05)), (1000, (0.0, 0.0))) for t, infid in enumerate(infids)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = sweep_plot_svg(table)
    assert not re.search(r'[",\s]-?(inf|nan)[",\s]', svg)
