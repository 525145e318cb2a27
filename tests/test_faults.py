"""Planted faults: a verifier that cannot fail shows nothing.

Each case makes one side of one theorem wrong by 1 at the largest n of the
theorem's default range: the series builder its rows read, or, for
thm-1.5, which reads no series, one family statistic on one partition of
that n.  ``chainex verify <id>`` at its defaults must then exit 1 with
MISMATCH lines, each at that n.
"""

from unittest import mock

import pytest

from chainex import qseries as qs
from chainex import verify as vf
from chainex.cli import run
from chainex.partition import Partition


def coefficient_plus_one(builder, n):
    """``builder`` with 1 added to its coefficient of q^n."""
    def wrong(*args):
        series = builder(*args)
        return series + qs.PowerSeries([0] * n + [1], series.order)
    return wrong


def maex_one_plus_one(builder, n):
    """``builder`` with 1 added to its coefficient of z q^n."""
    def wrong(*args):
        series = builder(*args)
        series.rows[1][n] += 1
        return series
    return wrong


def one_partition_plus_one(statistic, n):
    """``statistic`` one too high on the partition [n]."""
    lam = Partition([n])
    return lambda mu, r: statistic(mu, r) + (mu == lam)


# id -> the module and attribute made wrong, how, and at which n
FAULTS = {
    "thm-1.4": (qs, "series_sigma_mex", coefficient_plus_one, 40),
    "thm-1.5": (vf, "count_multiples", one_partition_plus_one, 25),
    "thm-1.6": (qs, "series_chain_mex_shifted", coefficient_plus_one, 30),
    "thm-1.7": (qs, "series_chain_mex_offset_sum", coefficient_plus_one, 30),
    "thm-1.8": (qs, "series_maex_defect", coefficient_plus_one, 30),
    "thm-1.10": (qs, "series_parts_above", coefficient_plus_one, 25),
    "thm-1.11": (qs, "series_chain_maex_sum", coefficient_plus_one, 30),
    "q-binomial": (qs, "q_binomial_sum", coefficient_plus_one, qs.DEFAULT_ORDER),
    "maex-distribution": (qs, "maex_bivariate", maex_one_plus_one, 20),
}


def test_every_theorem_has_a_fault():
    assert sorted(FAULTS) == sorted(vf.THEOREMS)


@pytest.mark.parametrize("vid", FAULTS)
def test_a_fault_at_the_largest_n_fails_verify(capsys, vid):
    owner, name, fault, n = FAULTS[vid]
    with mock.patch.object(owner, name, fault(getattr(owner, name), n)):
        code = run(["verify", vid])
    out = capsys.readouterr().out
    mismatches = [line for line in out.splitlines() if "MISMATCH" in line]
    assert code == 1 and out.startswith(f"{vid}: FAIL")
    assert mismatches and all(f" n={n} " in line for line in mismatches)
