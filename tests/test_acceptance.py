"""Acceptance gate: one test per headline guarantee, each printing a single
pass/fail line.  Everything here is an exact-integer comparison at the full
advertised ranges; the per-module test files cover edge cases and API
behavior at smaller sizes.
"""

from chainex.bijections import multiples_to_repeats, repeats_to_multiples
from chainex.partition import Partition, partitions
from chainex.qseries import (
    gaussian_binomial,
    series_chain_maex_product,
    series_chain_maex_sum,
    series_partition_count,
)
from chainex.verify import certify_bijection, check_theorem, count_family

from oracles import box_partition_count, partition_count


def _announce(capsys, label, ok):
    with capsys.disabled():
        print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_classic_mex_sum(capsys):
    ok = check_theorem("thm-1.4", n_max=50).passed
    _announce(capsys, "1 classic mex sum to n=50", ok)


def test_criterion_2_chain_mex_shifted_sum(capsys):
    ok = check_theorem("thm-1.6", r_values=range(1, 7), n_max=30).passed
    _announce(capsys, "2 chain mex shifted sum r=1..6 n<=30", ok)


def test_criterion_3_chain_mex_offset_sum(capsys):
    ok = check_theorem("thm-1.7", r_values=range(1, 7), n_max=30).passed
    _announce(capsys, "3 chain mex offset sum r=1..6 n<=30", ok)


def test_criterion_4_maex_defect_sum(capsys):
    ok = check_theorem("thm-1.8", n_max=30).passed
    _announce(capsys, "4 largest-minus-maex sum n<=30", ok)


def test_criterion_5_chain_maex_sum_and_product(capsys):
    report = check_theorem("thm-1.11", r_values=range(1, 7), n_max=30, order=60)
    ok = report.passed
    for r in range(1, 7):
        ok &= series_chain_maex_sum(r, 60) == series_chain_maex_product(r, 60)
    _announce(capsys, "5 chain maex sum r=1..6 n<=30 plus product form to order 60", ok)


def test_criterion_6_equinumerous_families(capsys):
    ok = check_theorem("thm-1.5", r_values=range(2, 6), n_max=25,
                       j_values=range(0, 6)).passed
    ok &= check_theorem("thm-1.10", r_values=range(2, 6), n_max=25,
                        j_values=range(1, 6)).passed
    for family in ("top-multiple", "smallest-repeating", "above-maex"):
        ok &= count_family(7, 3, 1, family) == 5
    _announce(capsys, "6 equinumerous families r=2..5 j<=5 n<=25", ok)


def test_criterion_7_bijection_certification(capsys):
    ok = True
    for r in (2, 3, 4):
        ok &= certify_bijection("glaisher", [r], 20).passed
        ok &= certify_bijection("multiples-repeats", [r], 20).passed
        ok &= certify_bijection("top-multiple", [r], 16).passed
    for r in (1, 2, 3):
        ok &= certify_bijection("gamma", [r], 20).passed
        ok &= certify_bijection("gamma-star", [r], 20).passed
        ok &= certify_bijection("delta", [r], 20).passed
    lam = Partition([9, 7, 6, 6, 6, 1, 1, 1, 1])
    image = multiples_to_repeats(lam, 3)
    ok &= image == Partition([7, 4, 4, 4, 4, 4, 4, 3, 1, 1, 1, 1])
    ok &= repeats_to_multiples(image, 3) == lam
    _announce(capsys, "7 bijections certified with worked trace", ok)


def test_criterion_8_series_identities(capsys):
    ok = check_theorem("q-binomial", order=60).passed
    ok &= check_theorem("maex-distribution", r_values=(1, 2, 3), n_max=20).passed
    _announce(capsys, "8 q-binomial and maex distribution r=1..3 n<=20", ok)


def test_criterion_9_infrastructure(capsys):
    ok = True
    for n in range(21):
        for lam in partitions(n):
            ok &= lam.conjugate().conjugate() == lam
    for n in range(13):
        for lam in partitions(n):
            for i in range(1, lam.num_parts + 2):
                up, down = lam.cut(i)
                ok &= up.concat(down) == lam
    series = series_partition_count(60)
    ok &= all(series.coeff(n) == partition_count(n) for n in range(61))
    for n in range(7):
        for m in range(n + 1):
            g = gaussian_binomial(n, m)
            ok &= all(g.coeff(k) == box_partition_count(m, n - m, k)
                      for k in range(g.order + 1))
    _announce(capsys, "9 infrastructure properties", ok)
