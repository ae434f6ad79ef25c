"""Tests for the combined model's one kernel (models/grid.py).

The core property: a cell's bits do not depend on the batch it is
evaluated in — one ``evaluate_grid`` call over K cells equals K one-cell
calls on every :class:`ModelGrid` field, which is what makes the
serving layer's batched answers equal ``CombinedModel.evaluate()``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import ConfigurationError, ModelDivergence
from repro.models import (
    CombinedModel,
    CombinedResult,
    PAPER_REDUNDANCY_GRID,
    combined,
    grid,
    sweep_redundancy,
)
from repro.models.grid import MAX_REDUNDANCY, ModelGrid, check_domain, evaluate_grid
from repro.models.redundancy import (
    partition_counts,
    redundant_time,
    system_failure_rate,
    system_reliability,
)
from repro.models.reliability import (
    node_failure_probability,
    sphere_failure_probability,
)

#: The numeric CombinedModel fields, less the interval override.
NUMERIC_FIELDS = (
    "virtual_processes",
    "redundancy",
    "node_mtbf",
    "alpha",
    "base_time",
    "checkpoint_cost",
    "restart_cost",
)


def reference_model(**overrides):
    params = dict(
        virtual_processes=50_000,
        redundancy=1.0,
        node_mtbf=units.years(5),
        alpha=0.2,
        base_time=units.hours(128),
        checkpoint_cost=units.minutes(8),
        restart_cost=units.minutes(12),
    )
    params.update(overrides)
    return CombinedModel(**params)


#: Integral degrees (r = 1 and r = 3 among them) mixed with fractional
#: ones, so Eq. 9's floor and ceil sphere sets both appear in one batch.
MIXED_DEGREES = (2.0, 1.0, 2.5, 3.0, 1.25, 1.1, 2.9, 3.75)


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_batch_invariant(models):
    """One call over ``models`` equals one call per model, bit for bit.

    The models must share ``interval_rule``, ``exact_reliability`` and
    whether they carry an interval override — the knobs a batch is
    grouped by.  ``evaluate()`` must agree with the one-cell call too.
    """
    first = models[0]
    axes = {
        name: np.array([getattr(m, name) for m in models], dtype=np.float64)
        for name in NUMERIC_FIELDS
    }
    if first.checkpoint_interval is not None:
        axes["checkpoint_interval"] = np.array([m.checkpoint_interval for m in models])
    batch = evaluate_grid(first, **axes)
    for index, model in enumerate(models):
        single = evaluate_grid(model)
        for field in dataclasses.fields(ModelGrid):
            batched = getattr(batch, field.name)[index]
            alone = getattr(single, field.name)
            assert bits(batched) == bits(alone), (field.name, model, batched, alone)
        if math.isinf(single.total_time):
            with pytest.raises(ModelDivergence):
                model.evaluate()
        else:
            # evaluate()'s record is the batched cell, attribute for
            # attribute, derived quantities included.
            result = model.evaluate()
            assert type(result.total_processes) is int
            assert result.total_processes == batch.total_processes[index]
            for field in dataclasses.fields(CombinedResult):
                if field.name == "total_processes":
                    continue
                value = getattr(result, field.name)
                cell = float(getattr(batch, field.name)[index])
                assert type(value) is float, field.name
                assert value.hex() == cell.hex(), (field.name, model, value, cell)


def model_cells(rule, exact, override):
    """Strategy: one in-domain model; integer and fractional degrees mix,
    so the masked sphere-power chain runs at several levels per batch."""
    return st.builds(
        CombinedModel,
        virtual_processes=st.integers(min_value=1, max_value=5_000_000),
        redundancy=st.one_of(
            st.floats(min_value=1.0, max_value=5.0),
            st.sampled_from(PAPER_REDUNDANCY_GRID),
            st.integers(min_value=1, max_value=5).map(float),
        ),
        node_mtbf=st.floats(min_value=1e3, max_value=1e9),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        base_time=st.floats(min_value=1.0, max_value=1e6),
        checkpoint_cost=st.floats(min_value=0.1, max_value=5e3),
        restart_cost=st.floats(min_value=0.0, max_value=5e3),
        interval_rule=st.just(rule),
        checkpoint_interval=(
            st.floats(min_value=1.0, max_value=1e5) if override else st.none()
        ),
        exact_reliability=st.just(exact),
    )


class TestScalarEquivalence:
    """Batched == one-cell, bit for bit (the serving invariant)."""

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        rule=st.sampled_from(("daly", "young")),
        exact=st.booleans(),
        override=st.booleans(),
    )
    def test_randomized_configurations(self, data, rule, exact, override):
        models = data.draw(
            st.lists(model_cells(rule, exact, override), min_size=1, max_size=12)
        )
        assert_batch_invariant(models)

    def test_paper_reference_point(self):
        for exact in (False, True):
            assert_batch_invariant(
                [
                    reference_model(redundancy=d, exact_reliability=exact)
                    for d in MIXED_DEGREES
                ]
            )

    def test_explicit_interval_override(self):
        assert_batch_invariant(
            [
                reference_model(checkpoint_interval=units.hours(1)),
                reference_model(redundancy=1.75, checkpoint_interval=units.hours(3)),
            ]
        )

    def test_failure_free_limit(self):
        # Enormous MTBF: linearised rate rounds to zero -> failure-free
        # cell, batched with a failing one.
        assert_batch_invariant(
            [
                reference_model(virtual_processes=1, node_mtbf=1e18, redundancy=2.0),
                reference_model(redundancy=2.0),
            ]
        )

    @pytest.mark.parametrize("exact", [False, True])
    def test_eq9_matches_a_power_chain_per_level(self, exact):
        # Eq. 9 takes the ceil(r) sphere power as one more multiply on
        # the floor(r) one; that must give the bits of a separate chain
        # up to ceil(r), for integral r (empty floor set) as for
        # fractional r.
        n = np.full(len(MIXED_DEGREES), 50_000.0)
        r = np.array(MIXED_DEGREES)
        t_red = redundant_time(units.hours(128), 0.2, r)
        theta = units.years(5)
        floor_level, ceil_level, floor_count, ceil_count, _ = partition_counts(n, r)
        p = node_failure_probability(t_red, theta, exact=exact)
        per_level = np.exp(
            np.where(
                floor_count > 0,
                floor_count * np.log1p(-sphere_failure_probability(p, floor_level)),
                0.0,
            )
            + np.where(
                ceil_count > 0,
                ceil_count * np.log1p(-sphere_failure_probability(p, ceil_level)),
                0.0,
            )
        )
        fused = system_reliability(n, r, t_red, theta, exact=exact)
        assert bits(fused) == bits(per_level)


#: The model domain's disagreements between entry points before it was
#: stated once, and degrees above MAX_REDUNDANCY, whose ceil(r)-step
#: sphere power once held the caller indefinitely: each must be a
#: ConfigurationError everywhere.
OUT_OF_DOMAIN = [
    {"node_mtbf": math.nan},
    {"alpha": math.nan},
    {"restart_cost": math.nan},
    {"checkpoint_cost": math.nan},
    {"base_time": 0.0},
    {"base_time": math.inf},
    {"redundancy": 1e300},
    {"redundancy": 1e6},
    {"redundancy": MAX_REDUNDANCY + 0.5},
]


class TestDomain:
    @pytest.mark.parametrize("overrides", OUT_OF_DOMAIN, ids=repr)
    def test_rejected_by_model_and_kernel(self, overrides):
        with pytest.raises(ConfigurationError, match=next(iter(overrides))):
            reference_model(**overrides)
        with pytest.raises(ConfigurationError, match=next(iter(overrides))):
            evaluate_grid(reference_model(), **overrides)

    def test_array_reports_the_offending_cell(self):
        with pytest.raises(ConfigurationError, match=r"redundancy must be in \[1, 64\], got 0.5"):
            evaluate_grid(reference_model(), redundancy=np.array([1.0, 0.5]))

    def test_fractional_process_count_rejected(self):
        with pytest.raises(ConfigurationError, match="virtual_processes"):
            reference_model(virtual_processes=1.5)

    @pytest.mark.parametrize("field", ["alpha", "node_mtbf", "restart_cost"])
    def test_non_number_names_its_field(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be a number, got 'x'"):
            reference_model(**{field: "x"})

    def test_no_override_interval_is_not_a_non_number(self):
        with pytest.raises(ConfigurationError, match="alpha must be a number"):
            check_domain("daly", checkpoint_interval=None, alpha="x")


@pytest.fixture
def domain_checks(monkeypatch):
    """The field names of every ``check_domain`` call made while the test
    runs, one entry per call (the model's own check included)."""
    calls = []

    def counted(interval_rule, **fields):
        calls.append(sorted(fields))
        return check_domain(interval_rule, **fields)

    for module in (grid, combined):
        monkeypatch.setattr(module, "check_domain", counted)
    return calls


class TestOneCheckPerInput:
    """A built model is its own domain proof: the kernel checks only the
    axes that replace its fields."""

    def test_evaluate_checks_nothing_in_the_kernel(self, domain_checks):
        model = reference_model(redundancy=2.0)
        assert len(domain_checks) == 1  # the model, when built
        model.evaluate()
        model.total_time_or_inf()
        assert len(domain_checks) == 1

    def test_sweep_checks_its_degree_axis_once(self, domain_checks):
        model = reference_model()
        domain_checks.clear()
        points = sweep_redundancy(model)
        assert domain_checks == [["redundancy"]]
        assert len(points) == len(PAPER_REDUNDANCY_GRID) == 9

    def test_sweep_points_equal_evaluate(self):
        # The lowest degrees diverge at this scale, the others do not.
        model = reference_model(
            virtual_processes=1_000_000, node_mtbf=units.days(120)
        )
        points = sweep_redundancy(model)
        assert points[0].diverged and not points[-1].diverged
        for point in points:
            alone = dataclasses.replace(model, redundancy=point.redundancy)
            if point.result is None:
                with pytest.raises(ModelDivergence):
                    alone.evaluate()
                continue
            expected = alone.evaluate()
            for field in dataclasses.fields(CombinedResult):
                value = getattr(point.result, field.name)
                reference = getattr(expected, field.name)
                assert type(value) is type(reference)
                assert float(value).hex() == float(reference).hex(), (
                    point.redundancy, field.name,
                )


class TestFailureFreeBoundary:
    """The scalar/grid discontinuity at the rate-underflow boundary.

    When the linearised system failure rate underflows to exactly 0.0
    the scalar path takes the failure-free branch (``delta = t_Red``)
    while an ULP-nonzero rate used to select a huge Daly interval; the
    two paths then disagreed by exactly one checkpoint cost.  The fix
    clamps the derived interval to ``min(rule_delta, t_Red)`` in both
    paths, which converges continuously to the failure-free branch.
    """

    #: The hypothesis falsifying example that exposed the bug (pinned
    #: deterministically; scalar used to give 2.2265625, grid 1.2265625).
    PINNED = dict(
        virtual_processes=32,
        redundancy=2.8125,
        node_mtbf=435560442.0,
        alpha=0.125,
        base_time=1.0,
        checkpoint_cost=1.0,
        restart_cost=0.0,
        interval_rule="daly",
        exact_reliability=False,
    )

    def test_pinned_falsifying_example(self):
        assert_batch_invariant([CombinedModel(**self.PINNED)])

    def test_pinned_example_takes_clamped_interval(self):
        result = CombinedModel(**self.PINNED).evaluate()
        # One nominal checkpoint, not a huge unclamped Daly interval.
        assert result.checkpoint_interval == result.redundant_time
        assert result.total_time == pytest.approx(
            result.redundant_time + self.PINNED["checkpoint_cost"],
            rel=1e-9,
        )

    @staticmethod
    def _bracket_boundary(rate_of, lo=1e3, hi=1e300):
        """Bisect node_mtbf to the exact rate-underflow boundary.

        Returns ``(theta_lo, theta_hi)`` with rate(theta_lo) > 0,
        rate(theta_hi) == 0 and the two thetas adjacent to ~1e-13
        relative — any model discontinuity at the boundary shows up as
        a jump between the two total times.
        """
        assert rate_of(lo) > 0.0
        assert rate_of(hi) == 0.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if rate_of(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * lo:
                break
        return lo, hi

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100_000),
        r=st.one_of(
            st.floats(min_value=1.0, max_value=3.0),
            st.sampled_from(PAPER_REDUNDANCY_GRID),
        ),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=1.0, max_value=1e4),
        c=st.floats(min_value=0.1, max_value=1e3),
        rc=st.floats(min_value=0.0, max_value=1e3),
        rule=st.sampled_from(("daly", "young")),
    )
    def test_total_time_continuous_in_node_mtbf(self, n, r, alpha, t, c, rc, rule):
        def make_model(theta):
            return CombinedModel(
                virtual_processes=n,
                redundancy=r,
                node_mtbf=theta,
                alpha=alpha,
                base_time=t,
                checkpoint_cost=c,
                restart_cost=rc,
                interval_rule=rule,
            )

        t_red = redundant_time(t, alpha, r)

        def rate_of(theta):
            # Probe the Eq. 10 rate alone: the full pipeline diverges
            # far below the boundary, where we only bisect through.
            return system_failure_rate(n, r, t_red, theta)

        theta_lo, theta_hi = self._bracket_boundary(rate_of)
        below = make_model(theta_lo).evaluate().total_time
        above = make_model(theta_hi).evaluate().total_time
        # Continuity: pre-fix the jump here was a full checkpoint cost.
        assert below == pytest.approx(above, rel=1e-9)
        # A batch of both sides gives the same bits as evaluate().
        thetas = np.array([theta_lo, theta_hi])
        grid = evaluate_grid(make_model(theta_lo), node_mtbf=thetas)
        assert float(grid.total_time[0]) == below
        assert float(grid.total_time[1]) == above

    def test_grid_continuous_across_dense_theta_sweep(self):
        # A dense sweep spanning the pinned example's boundary: adjacent
        # cells must never again fork by ~one checkpoint cost.
        thetas = np.geomspace(1e7, 1e10, 400)
        grid = evaluate_grid(CombinedModel(**self.PINNED), node_mtbf=thetas)
        total = grid.total_time
        assert np.all(np.isfinite(total))
        jumps = np.abs(np.diff(total))
        assert float(jumps.max()) < 1e-3  # a full checkpoint cost is 1.0


class TestPaperParameterCells:
    """Batched == one-cell over the paper's Table 4/5 cells."""

    #: Table 4 testbed: NPB CG, 128 processes, 46 min failure-free,
    #: alpha ~ 0.2, c = 120 s, R = 500 s, node MTBF 6-30 h.
    TABLE4_MTBF_HOURS = (6.0, 12.0, 18.0, 24.0, 30.0)

    def test_table4_cells_agree(self):
        assert_batch_invariant(
            [
                CombinedModel(
                    virtual_processes=128,
                    redundancy=degree,
                    node_mtbf=hours * 3600.0,
                    alpha=0.2,
                    base_time=46.0 * 60.0,
                    checkpoint_cost=120.0,
                    restart_cost=500.0,
                )
                for hours in self.TABLE4_MTBF_HOURS
                for degree in PAPER_REDUNDANCY_GRID
            ]
        )

    def test_table5_failure_free_cells_agree(self):
        # Table 5 runs with no injected failures: model it as an
        # effectively failure-free node MTBF at every paper degree.
        assert_batch_invariant(
            [
                CombinedModel(
                    virtual_processes=128,
                    redundancy=degree,
                    node_mtbf=1e18,
                    alpha=0.2,
                    base_time=46.0 * 60.0,
                    checkpoint_cost=120.0,
                    restart_cost=500.0,
                )
                for degree in PAPER_REDUNDANCY_GRID
            ]
        )

    def test_diverged_cells_report_inf_expected_checkpoints(self):
        doomed = reference_model(
            virtual_processes=1_000_000, node_mtbf=units.days(120)
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent NaN came via RuntimeWarning
            grid = evaluate_grid(doomed, redundancy=np.array([1.0, 3.0]))
            counts = grid.expected_checkpoints
        assert math.isinf(counts[0])
        assert not np.isnan(counts).any()
        assert math.isfinite(counts[1])


class TestGridSemantics:
    def test_broadcast_shape(self):
        grid = evaluate_grid(
            reference_model(),
            virtual_processes=np.array([100.0, 1000.0, 10_000.0]),
            redundancy=np.asarray(PAPER_REDUNDANCY_GRID)[:, None],
        )
        assert grid.total_time.shape == (len(PAPER_REDUNDANCY_GRID), 3)

    def test_divergence_marked_inf(self):
        doomed = reference_model(
            virtual_processes=1_000_000, node_mtbf=units.days(120)
        )
        grid = evaluate_grid(doomed, redundancy=np.array([1.0, 3.0]))
        assert math.isinf(grid.total_time[0])
        assert bool(grid.diverged[0])
        assert math.isfinite(grid.total_time[1])
        assert not bool(grid.diverged[1])
        # Matches the scalar convention exactly.
        assert math.isinf(doomed.total_time_or_inf())

    def test_process_axis_matches_scalar_models(self):
        model = reference_model()
        counts = [100, 1_000, 10_000]
        times = evaluate_grid(
            model, virtual_processes=np.asarray(counts, dtype=float)
        ).total_time
        for count, vector_time in zip(counts, times):
            scalar = dataclasses.replace(model, virtual_processes=count)
            assert float(vector_time) == scalar.total_time_or_inf()

    def test_degree_by_count_grid_equals_scalar_loop(self):
        # The Fig. 13/14 shape: a (degree x count) grid spanning cells
        # that diverge (inf on both sides) and cells that do not.  A
        # 30-day node MTBF makes the largest counts diverge at several
        # degrees (lambda t_RR >= 1).
        model = reference_model(virtual_processes=1000, node_mtbf=units.days(30))
        counts = np.unique(np.round(np.logspace(0.5, 6, 60)).astype(int))
        degrees = np.asarray(PAPER_REDUNDANCY_GRID)
        grid = evaluate_grid(
            model, virtual_processes=counts.astype(float), redundancy=degrees[:, None]
        ).total_time
        scalar = np.array([
            [
                dataclasses.replace(
                    model, virtual_processes=int(n), redundancy=float(r)
                ).total_time_or_inf()
                for n in counts
            ]
            for r in degrees
        ])
        assert np.isinf(scalar).any() and np.isfinite(scalar).any()
        assert np.array_equal(grid, scalar)

    def test_expected_checkpoints_property(self):
        model = reference_model(redundancy=2.0)
        grid = evaluate_grid(model)
        result = model.evaluate()
        assert float(grid.expected_checkpoints) == result.expected_checkpoints

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_grid(reference_model(), shadow_nodes=np.array([1.0]))

    def test_domain_validation(self):
        small = CombinedModel(10, 1.0, 1e6, 0.2, 1e3, 10.0, 10.0)
        with pytest.raises(ConfigurationError, match="virtual_processes"):
            evaluate_grid(small, virtual_processes=0)
        with pytest.raises(ConfigurationError, match="redundancy"):
            evaluate_grid(small, redundancy=0.5)
        with pytest.raises(ConfigurationError, match="redundancy"):
            evaluate_grid(small, redundancy=65.0)
        with pytest.raises(ConfigurationError, match="alpha"):
            evaluate_grid(small, alpha=1.5)
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            evaluate_grid(small, checkpoint_interval=0.0)
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            evaluate_grid(small, checkpoint_interval=np.array([60.0, -1.0]))
        with pytest.raises(ConfigurationError, match="interval_rule"):
            CombinedModel(10, 1.0, 1e6, 0.2, 1e3, 10.0, 10.0, interval_rule="magic")
