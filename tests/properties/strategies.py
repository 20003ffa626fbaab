"""Shared hypothesis strategies for the property-based suite."""

from __future__ import annotations

import datetime as dt

from hypothesis import strategies as st

from repro.core.builder import MOBuilder, dimension_from_rows, dimension_type_from_chains
from repro.timedim.builder import build_sparse_time_dimension

#: A two-year pool of candidate days for sparse time dimensions.
DAY_POOL = [
    dt.date(1999, 1, 1) + dt.timedelta(days=17 * i) for i in range(44)
]

URL_ROWS = [
    {"url": f"http://www.site{d}{grp}/p{u}", "domain": f"site{d}{grp}",
     "domain_grp": grp}
    for grp in (".com", ".edu")
    for d in range(2)
    for u in range(2)
]


@st.composite
def sparse_days(draw, min_size: int = 2, max_size: int = 10):
    days = draw(
        st.lists(
            st.sampled_from(DAY_POOL),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return sorted(days)


#: Float measure values whose sums depend on the order they are added
#: in, and signed zeros, whose ``max`` depends on it.
ORDER_SENSITIVE_FLOATS = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.sampled_from([0.1, 0.2, 1e16, -1e16]),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def small_mos(draw, max_facts: int = 14, float_measures: bool = False):
    """A small click MO over a sparse time dimension and a fixed URL dim.

    With *float_measures*, ``Dwell_time`` (sum) and ``Peak`` (max) hold
    :data:`ORDER_SENSITIVE_FLOATS`.
    """
    days = draw(sparse_days())
    n_facts = draw(st.integers(min_value=1, max_value=max_facts))
    builder = (
        MOBuilder("Click")
        .with_prebuilt_dimension(build_sparse_time_dimension(days))
        .with_prebuilt_dimension(
            dimension_from_rows(
                dimension_type_from_chains(
                    "URL", [["url", "domain", "domain_grp"]]
                ),
                URL_ROWS,
            )
        )
        .with_measure("Number_of")
        .with_measure("Dwell_time")
        .with_measure("Peak", aggregate="max")
    )
    from repro.timedim.calendar import day_value

    for index in range(n_facts):
        day = day_value(draw(st.sampled_from(days)))
        url = draw(st.sampled_from(URL_ROWS))["url"]
        builder.with_fact(
            f"f{index}",
            {"Time": day, "URL": url},
            {
                "Number_of": 1,
                "Dwell_time": draw(
                    ORDER_SENSITIVE_FLOATS
                    if float_measures
                    else st.integers(min_value=1, max_value=999)
                ),
                "Peak": draw(
                    ORDER_SENSITIVE_FLOATS
                    if float_measures
                    else st.integers(min_value=1, max_value=99)
                ),
            },
        )
    return builder.build()


@st.composite
def evaluation_times(draw):
    base = draw(st.sampled_from(DAY_POOL))
    offset = draw(st.integers(min_value=0, max_value=900))
    return base + dt.timedelta(days=offset)


def spec_for(mo, detail_months: int, coarse_quarters: int):
    """A sound two-tier specification parameterized by its horizons."""
    from repro.spec.action import Action
    from repro.spec.specification import ReductionSpecification

    to_month = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain] "
        f"o[Time.month <= NOW - {detail_months} months]",
        "to_month",
    )
    to_quarter = Action.parse(
        mo.schema,
        "a[Time.quarter, URL.domain_grp] "
        f"o[Time.quarter <= NOW - {coarse_quarters} quarters]",
        "to_quarter",
    )
    return ReductionSpecification(
        (to_month, to_quarter), mo.dimensions, validate=False
    )


def windowed_spec_for(mo, k: int):
    """The paper's a1/a2 shape, scaled: a shrinking `.com` month window
    of [NOW - 2k, NOW - k] months caught by a quarter tier.

    Soundness of this family for k in {3, 6, 9} is verified by the
    checkers (see the growing/noncrossing test modules); the strategy
    skips re-checking for speed.
    """
    from repro.spec.action import Action
    from repro.spec.specification import ReductionSpecification

    window = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain] o[URL.domain_grp = '.com' AND "
        f"NOW - {2 * k} months <= Time.month <= NOW - {k} months]",
        "window",
    )
    catcher = Action.parse(
        mo.schema,
        "a[Time.quarter, URL.domain] o[URL.domain_grp = '.com' AND "
        f"Time.quarter <= NOW - {2 * k // 3} quarters]",
        "catcher",
    )
    return ReductionSpecification(
        (window, catcher), mo.dimensions, validate=False
    )


@st.composite
def mos_with_specs(
    draw, max_facts: int = 14, float_measures: bool = False
):
    mo = draw(small_mos(max_facts, float_measures))
    if draw(st.booleans()):
        detail_months = draw(st.integers(min_value=1, max_value=8))
        coarse_quarters = draw(st.integers(min_value=1, max_value=6))
        return mo, spec_for(mo, detail_months, coarse_quarters)
    k = draw(st.sampled_from([3, 6, 9]))
    return mo, windowed_spec_for(mo, k)
