"""The cost of one EM step, replayed at the start states of fits.

Timing the E-steps and M-steps where they run mixes two things: how much
work a step does, and how fast the host runs at that moment.  The work of
a binomial M-step (its Newton iterations and line-search halvings) swings
with the data, most of all late in a fit and in small seasons, so the
steps of one run are not the same kind of step as those of the next; and
the host's speed drifts by up to half within seconds.  So the benchmark
keeps the inputs of the first M-step of some restarts (``tracing.FitLog``),
or builds them from further inputs (``Baseball.replay_states``), and after
the timed passes replays at each state one M-step and the E-step that
follows it, several times in a row, between reference loops run just
before and just after.  Back to back, the steps run with warm caches, and
the fastest of them over the fastest loop next to them held within 1%
over repeated runs of one seed; pairing each step with a loop of its own
left it to follow the loop's cold caches, and spread four times as much.
"""

import statistics
from time import perf_counter

from ebmix import mixture

REF_LOOPS = 3  # reference loops before and after each state's steps


def em_step_cost(states, rounds, reference):
    """(seconds, ratio to the reference loop) of one M-step plus E-step, medians over states.

    ``states`` are the (args, kwargs) of ``mixture.m_step`` calls, and
    ``reference()`` times one reference loop.  A state's time is the
    fastest of ``rounds`` steps in a row, and its ratio that time over
    the fastest of the reference loops around them.
    """
    seconds, ratios = [], []
    for args, kwargs in states:
        data = args[0] if args else kwargs["data"]
        refs = [reference() for _ in range(REF_LOOPS)]
        steps = []
        for _ in range(rounds):
            t0 = perf_counter()
            model, _ = mixture.m_step(*args, **kwargs)
            mixture.e_step(data, model)
            steps.append(perf_counter() - t0)
        refs += [reference() for _ in range(REF_LOOPS)]
        seconds.append(min(steps))
        ratios.append(min(steps) / min(refs))
    return statistics.median(seconds), statistics.median(ratios)
