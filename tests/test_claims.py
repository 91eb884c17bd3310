"""Claim-level checks of the two normal simulation studies.

The paper's abstract claims that the mixture method nearly achieves the
Bayes error for effect size estimation and outperforms existing effect
size and false discovery rate procedures.  The golden SHA-256 sums of
`tests/test_cli.py` see that a study's output moved, not whether it got
worse; these tests bound the numbers behind the claims, so a change that
re-pins a SHA must still pass them.

Both studies run at seed 0 with small reps.  Each bound is the seed-0
value plus a margin of at least three times the number's spread, its
sample sd over seeds 0-9 at the same reps (`harness` seeds the design
and the noise from the study seed), so a failing bound is a loss of
quality and not Monte Carlo noise.  The value, spread and margin are
stated next to each bound.
"""

import pytest

from ebmix import harness

# pooled mean of the mixture's relative error (MSE / Bayes MSE) over the
# 24 cells, run_effect_study(default_effect_methods(10, 50.0), reps=2):
# 1.096 at seed 0, sd 0.118 over seeds 0-9 (range 1.064-1.469);
# margin 0.40 = 3.4 sd
EFFECT_MAX_BAYES_MULTIPLE = 1.5
# the same mean over the best baseline's (fdr_threshold_q0.1 or
# sure_shrink): 0.600 at seed 0, sd 0.084 (range 0.531-0.827);
# margin 0.26 = 3.1 sd
EFFECT_MAX_RATIO_TO_BEST_BASELINE = 0.86

FDR_Q = 0.1
# |mean estimated threshold - truth's threshold| at q = 0.1 over
# run_fdr_study(("theoretical", "empirical"), 3, 50.0, reps=5), by
# (kind, null mode).  The truth's thresholds are 3.257 (fdr) and 2.955
# (FDR) at seed 0; the per-rep sd of an estimate is 0.03-0.14.
FDR_MAX_THRESHOLD_DISTANCE = {
    # 0.017 at seed 0, sd 0.019 (largest 0.065); margin 0.063 = 3.3 sd
    ("fdr", "theoretical"): 0.08,
    # 0.089 at seed 0, sd 0.055 (largest 0.207); margin 0.171 = 3.1 sd
    ("fdr", "empirical"): 0.26,
    # 0.042 at seed 0, sd 0.021 (largest 0.043); margin 0.068 = 3.2 sd
    ("FDR", "theoretical"): 0.11,
    # 0.130 at seed 0, sd 0.043 (largest 0.167); margin 0.140 = 3.2 sd
    ("FDR", "empirical"): 0.27,
}


@pytest.fixture(scope="module")
def effect_means():
    methods = harness.default_effect_methods(10, 50.0)
    rows = harness.run_effect_study(methods, reps=2, seed=0)
    return {name: mean for name, mean, _ in harness.effect_summary(rows)}


@pytest.fixture(scope="module")
def fdr_thresholds():
    _, _, rows = harness.run_fdr_study(("theoretical", "empirical"), 3, 50.0, reps=5, seed=0)
    return {(kind, method): mean for q, kind, method, _, mean, _ in rows if q == FDR_Q}


def test_mixture_effect_error_is_near_bayes(effect_means):
    assert effect_means["bayes_oracle"] == 1.0
    assert effect_means["mixture_J10_P50"] <= EFFECT_MAX_BAYES_MULTIPLE


def test_mixture_effect_error_is_below_every_baseline(effect_means):
    baselines = {name: mean for name, mean in effect_means.items() if name not in ("mixture_J10_P50", "bayes_oracle")}
    assert len(baselines) == len(harness.BASELINES)
    assert effect_means["mixture_J10_P50"] <= EFFECT_MAX_RATIO_TO_BEST_BASELINE * min(baselines.values())


@pytest.mark.parametrize("kind, mode", list(FDR_MAX_THRESHOLD_DISTANCE))
def test_estimated_threshold_is_near_the_truths(fdr_thresholds, kind, mode):
    distance = abs(fdr_thresholds[kind, f"mixture_{mode}"] - fdr_thresholds[kind, "truth"])
    assert distance <= FDR_MAX_THRESHOLD_DISTANCE[kind, mode]
