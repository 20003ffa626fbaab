"""Unit tests for dimension instances and the value containment order."""

import pytest

from repro.core.builder import dimension_from_rows, dimension_type_from_chains
from repro.core.dimension import ALL_VALUE, Dimension
from repro.core.hierarchy import TOP
from repro.errors import DimensionError
from repro.timedim.builder import build_sparse_time_dimension


@pytest.fixture
def url_type():
    return dimension_type_from_chains("URL", [["url", "domain", "domain_grp"]])


@pytest.fixture
def url_dim(url_type):
    dimension = Dimension(url_type)
    dimension.add_value("domain_grp", ".com")
    dimension.add_value("domain_grp", ".edu")
    dimension.add_value("domain", "cnn.com", [".com"])
    dimension.add_value("domain", "gatech.edu", [".edu"])
    dimension.add_value("url", "cnn.com/a", ["cnn.com"])
    dimension.add_value("url", "cnn.com/b", ["cnn.com"])
    dimension.add_value("url", "gatech.edu/x", ["gatech.edu"])
    return dimension


class TestConstruction:
    def test_top_value_present(self, url_dim):
        assert url_dim.values(TOP) == {ALL_VALUE}
        assert ALL_VALUE in url_dim

    def test_values_by_category(self, url_dim):
        assert url_dim.values("domain") == {"cnn.com", "gatech.edu"}
        assert len(url_dim.values("url")) == 3

    def test_category_of(self, url_dim):
        assert url_dim.category_of("cnn.com/a") == "url"
        assert url_dim.category_of(ALL_VALUE) == TOP

    def test_unknown_value_raises(self, url_dim):
        with pytest.raises(DimensionError, match="unknown value"):
            url_dim.category_of("nosuch")

    def test_cannot_add_to_top(self, url_dim):
        with pytest.raises(DimensionError):
            url_dim.add_value(TOP, "v")

    def test_cannot_change_category(self, url_dim):
        with pytest.raises(DimensionError, match="already in category"):
            url_dim.add_value("domain", "cnn.com/a")

    def test_parent_must_exist(self, url_type):
        dimension = Dimension(url_type)
        with pytest.raises(DimensionError, match="does not exist"):
            dimension.add_value("url", "x", ["ghost"])

    def test_parent_must_be_immediate_ancestor(self, url_dim):
        with pytest.raises(DimensionError, match="immediate ancestors"):
            url_dim.add_value("url", "weird", [".com"])

    def test_readd_merges_parents(self, url_type):
        dimension = Dimension(url_type)
        dimension.add_value("domain_grp", ".com")
        dimension.add_value("domain", "a.com")
        assert dimension.parents("a.com") == frozenset()
        dimension.add_value("domain", "a.com", [".com"])
        assert dimension.parents("a.com") == {".com"}


class TestDigest:
    def test_memo_follows_add_value(self, url_dim):
        digest = url_dim.memoized_digest()
        assert digest == url_dim.digest()
        url_dim.add_value("url", "cnn.com/c", ["cnn.com"])
        assert url_dim.memoized_digest() == url_dim.digest() != digest

    def test_readding_a_parent_link_is_an_edit(self, url_type):
        dimension = Dimension(url_type)
        dimension.add_value("domain_grp", ".com")
        dimension.add_value("domain_grp", ".org")
        dimension.add_value("domain", "a.com", [".com"])
        digest = dimension.memoized_digest()
        dimension.add_value("domain", "a.com", [".org"])
        assert dimension.memoized_digest() == dimension.digest() != digest


class TestContainment:
    def test_le_reflexive(self, url_dim):
        assert url_dim.le_value("cnn.com/a", "cnn.com/a")

    def test_le_one_level(self, url_dim):
        assert url_dim.le_value("cnn.com/a", "cnn.com")

    def test_le_two_levels(self, url_dim):
        assert url_dim.le_value("cnn.com/a", ".com")

    def test_le_to_all(self, url_dim):
        assert url_dim.le_value("cnn.com/a", ALL_VALUE)
        assert url_dim.le_value(ALL_VALUE, ALL_VALUE)

    def test_not_le_across_branches(self, url_dim):
        assert not url_dim.le_value("cnn.com/a", ".edu")
        assert not url_dim.le_value("cnn.com", "gatech.edu")

    def test_not_le_downward(self, url_dim):
        assert not url_dim.le_value(".com", "cnn.com")


class TestAncestors:
    def test_ancestor_at_own_category(self, url_dim):
        assert url_dim.ancestor_at("cnn.com", "domain") == "cnn.com"

    def test_ancestor_at_higher(self, url_dim):
        assert url_dim.ancestor_at("cnn.com/a", "domain_grp") == ".com"

    def test_ancestor_at_top(self, url_dim):
        assert url_dim.ancestor_at("cnn.com/a", TOP) == ALL_VALUE

    def test_try_ancestor_below_is_none(self, url_dim):
        assert url_dim.try_ancestor_at(".com", "url") is None

    def test_ancestor_at_raises_when_unreachable(self, url_dim):
        with pytest.raises(DimensionError, match="no ancestor"):
            url_dim.ancestor_at(".com", "domain")

    def test_parallel_branch_unreachable(self):
        time_dim = build_sparse_time_dimension(["2000/1/4"])
        assert time_dim.try_ancestor_at("2000W01", "month") is None

    def test_nonlinear_day_has_week_and_month(self):
        time_dim = build_sparse_time_dimension(["2000/1/4"])
        assert time_dim.ancestor_at("2000/01/04", "week") == "2000W01"
        assert time_dim.ancestor_at("2000/01/04", "month") == "2000/01"
        assert time_dim.ancestor_at("2000/01/04", "year") == "2000"


class TestDescendants:
    def test_descendants_one_level(self, url_dim):
        assert url_dim.descendants_at("cnn.com", "url") == {
            "cnn.com/a",
            "cnn.com/b",
        }

    def test_descendants_two_levels(self, url_dim):
        assert url_dim.descendants_at(".com", "url") == {
            "cnn.com/a",
            "cnn.com/b",
        }

    def test_descendants_of_all(self, url_dim):
        assert url_dim.descendants_at(ALL_VALUE, "domain") == {
            "cnn.com",
            "gatech.edu",
        }

    def test_descendants_at_own_category(self, url_dim):
        assert url_dim.descendants_at("cnn.com", "domain") == {"cnn.com"}

    def test_descendants_upward_raises(self, url_dim):
        with pytest.raises(DimensionError, match="not below"):
            url_dim.descendants_at("cnn.com/a", "domain")

    def test_week_descendants_are_days(self):
        time_dim = build_sparse_time_dimension(["1999/12/4", "1999/12/31"])
        assert time_dim.descendants_at("1999W48", "day") == {"1999/12/04"}


class TestSubdimension:
    def test_retains_requested_categories(self, url_dim):
        sub = url_dim.subdimension(["domain_grp"])
        assert sub.values("domain_grp") == {".com", ".edu"}
        assert sub.dimension_type.hierarchy.user_categories == ("domain_grp",)

    def test_skipping_middle_relinks(self, url_dim):
        sub = url_dim.subdimension(["url", "domain_grp"])
        assert sub.ancestor_at("cnn.com/a", "domain_grp") == ".com"

    def test_time_subdimension_drops_week(self):
        time_dim = build_sparse_time_dimension(["2000/1/4", "2000/1/20"])
        sub = time_dim.subdimension(["month", "quarter", "year"])
        assert sub.dimension_type.hierarchy.bottom == "month"
        assert sub.ancestor_at("2000/01", "year") == "2000"

    def test_two_parallel_bottoms_rejected(self):
        time_dim = build_sparse_time_dimension(["2000/1/4"])
        with pytest.raises(DimensionError, match="unique bottom"):
            time_dim.subdimension(["week", "month"])


class TestNormalization:
    def test_time_values_normalize(self):
        time_dim = build_sparse_time_dimension(["2000/1/4"])
        assert time_dim.normalize_value("2000/1/4") == "2000/01/04"
        assert time_dim.normalize_value("2000/1") == "2000/01"
        assert time_dim.normalize_value("2000W1") == "2000W01"

    def test_normalize_unknown_raises(self):
        time_dim = build_sparse_time_dimension(["2000/1/4"])
        with pytest.raises(DimensionError, match="unknown value"):
            time_dim.normalize_value("1980/1/1")

    def test_plain_dimension_passthrough(self, url_dim):
        assert url_dim.normalize_value("cnn.com") == "cnn.com"


class TestSorting:
    def test_sorted_values_default_string_order(self, url_dim):
        assert url_dim.sorted_values("domain") == ["cnn.com", "gatech.edu"]

    def test_time_sorted_temporally(self):
        time_dim = build_sparse_time_dimension(
            ["1999/12/31", "2000/1/4", "1999/2/1"]
        )
        assert time_dim.sorted_values("day") == [
            "1999/02/01",
            "1999/12/31",
            "2000/01/04",
        ]
