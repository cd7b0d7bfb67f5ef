"""Exact Fermat-rational arithmetic and the two-channel witness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    DomainError,
    fermat_equivalence_check,
    fermat_rational,
    fermat_search,
    substitution_constant,
)
from zetalab.cli import main


class TestRational:
    def test_unit_triple(self):
        assert fermat_rational(1, 1, 1, 3) == Fraction(2, 1)

    def test_pythagoras_cubed(self):
        assert fermat_rational(3, 4, 5, 3) == Fraction(91, 125)

    def test_homogeneity(self):
        assert fermat_rational(6, 8, 10, 3) == Fraction(91, 125)

    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
        st.integers(3, 9), st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_property(self, x, y, z, n, lam):
        assert fermat_rational(lam * x, lam * y, lam * z, n) == fermat_rational(x, y, z, n)

    def test_rejects_square_exponent(self):
        # 9 + 16 = 25 shows why n = 2 must stay excluded
        with pytest.raises(DomainError):
            fermat_rational(3, 4, 5, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fermat_rational(0, 1, 1, 3)


class TestSearch:
    def test_small_exhaustive_is_empty(self):
        assert fermat_search(25, 3, 6) == []

    def test_would_find_n2_style_hits(self):
        # sanity that the search machinery can find anything at all:
        # inject n = 2 via a local re-check of the same table logic
        pows = {k ** 2: k for k in range(1, 26)}
        hits = [(x, y) for x in range(1, 26) for y in range(1, 26)
                if x ** 2 + y ** 2 in pows]
        assert (3, 4) in hits

    def test_rejects_n_below_3(self):
        with pytest.raises(DomainError):
            fermat_search(10, 2, 5)


class TestWitness:
    def test_unit_triple_no_trace(self):
        w = fermat_equivalence_check(1, 1, 1, 3)
        assert not w.is_one_exact
        assert Fraction(w.numerator, w.denominator) == Fraction(2, 1)
        assert "not-one" in w.verdict

    def test_trace_trend_kind_c(self):
        # the fourth-power channel approaches its target from above
        K = substitution_constant("C", sigma=1.0)
        target = 2.0
        taus = [500.0 / (K * target), 2000.0 / (K * target)]
        w = fermat_equivalence_check(1, 1, 1, 3, kind="C", sigma=1.0, tau_schedule=taus)
        assert not w.is_one_exact
        assert len(w.approximants) == 2
        d = [abs(a.value - target) for a in w.approximants]
        assert d[1] <= d[0]
        assert w.verdict.startswith("consistent")

    def test_rejects_decreasing_schedule(self):
        with pytest.raises(DomainError):
            fermat_equivalence_check(1, 1, 1, 3, tau_schedule=[5.0, 1.0])

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            fermat_equivalence_check(3, 4, 5, 2)

    def test_csv_row(self, tmp_path, capsys):
        assert main(["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3",
                     "--manifest", str(tmp_path / "m.jsonl")]) == 0
        row = capsys.readouterr().out.rstrip("\n").split(",")
        assert row[:6] == ["3", "4", "5", "3", "91", "125"]
        assert row[6] == "false"
