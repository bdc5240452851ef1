"""Two-stage selection, the AND decision, and ranked-pair aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keenact.data import Catalog
from keenact.features import FeatureLayout, empty_features
from keenact.fm import FMParameters, init_params
from keenact.recommend import (
    Recommendation,
    RecommendationList,
    StageOrderError,
    act_stage,
    decide,
    keen_stage,
    recommend,
    recommendation_lines,
    select_activities,
    select_items,
    write_recommendations,
)
from keenact.training import ThresholdTable, TrainConfig, TrainedModel


def build_model(keen_scores, act_scores, item_cutoffs, act_cutoffs, n_users=1, fallback=0.0, cold=()):
    """Model with exact per-item keen scores and per-(item, activity) act scores.

    Keen scores come from the item one-hot weights; act scores from item
    factor rows paired against activity factor columns, so every target
    is hit exactly and users are interchangeable.
    """
    keen_scores = np.asarray(keen_scores, dtype=np.float64)
    act_scores = np.asarray(act_scores, dtype=np.float64)
    n_items, n_acts = act_scores.shape
    catalog = Catalog(
        [f"u{i}" for i in range(n_users)],
        [f"i{j}" for j in range(n_items)],
        [f"a{z}" for z in range(n_acts)],
    )
    uf = empty_features(n_users, "user")
    itf = empty_features(n_items, "item")
    keen_layout = FeatureLayout.for_keen(catalog, uf, itf)
    act_layout = FeatureLayout.for_act(catalog, uf, itf)
    k = n_items
    keen = FMParameters(w0=0.0, w=np.zeros(keen_layout.dim), factors=np.zeros((keen_layout.dim, k)))
    keen.w[keen_layout.item_id_offset : keen_layout.item_id_offset + n_items] = keen_scores
    act = FMParameters(w0=0.0, w=np.zeros(act_layout.dim), factors=np.zeros((act_layout.dim, k)))
    for v in range(n_items):
        act.factors[act_layout.item_id_offset + v, v] = 1.0
    for z in range(n_acts):
        act.factors[act_layout.activity_offset + z] = act_scores[:, z]
    thresholds = ThresholdTable(
        item_thresholds=np.asarray(item_cutoffs, dtype=np.float64),
        activity_thresholds=np.asarray(act_cutoffs, dtype=np.float64),
        global_item_fallback=fallback,
        item_trained=np.array([v not in cold for v in range(n_items)]),
    )
    return TrainedModel(
        keen=keen,
        act=act,
        thresholds=thresholds,
        keen_layout=keen_layout,
        act_layout=act_layout,
        user_feats=uf,
        item_feats=itf,
        seen_items=frozenset(v for v in range(n_items) if v not in cold),
        report=[],
        config=TrainConfig(),
        catalog=catalog,
    )


def two_item_model(**kwargs):
    """Items keen 0.9/0.5; activities (0.7, 0.2) on item 0, (0.8, -1) on item 1."""
    return build_model(
        keen_scores=[0.9, 0.5],
        act_scores=[[0.7, 0.2], [0.8, -1.0]],
        item_cutoffs=[0.0, 0.0],
        act_cutoffs=[0.0, 0.0],
        **kwargs,
    )


class TestSelectItems:
    def test_thresholds_are_inclusive(self):
        """An item whose score equals its cutoff is selected."""
        model = build_model([1.0, 2.0], [[0.0], [0.0]], item_cutoffs=[1.0, 2.5], act_cutoffs=[0.0])
        np.testing.assert_array_equal(select_items(model, 0), [0])

    def test_huge_cutoffs_select_nothing(self):
        model = build_model([1.0, 2.0], [[0.0], [0.0]], item_cutoffs=[1e9, 1e9], act_cutoffs=[0.0])
        assert len(select_items(model, 0)) == 0
        assert len(recommend(model, 0)) == 0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(41)
        scores = rng.normal(size=5)
        cutoffs = rng.normal(size=5)
        model = build_model(scores, np.zeros((5, 2)), cutoffs, [0.0, 0.0])
        expected = [v for v in range(5) if scores[v] >= cutoffs[v]]
        np.testing.assert_array_equal(select_items(model, 0), expected)

    def test_candidate_subset(self):
        model = two_item_model()
        np.testing.assert_array_equal(select_items(model, 0, items=np.array([1])), [1])

    def test_unknown_user(self):
        model = two_item_model()
        with pytest.raises(ValueError):
            select_items(model, 5)

    def test_cold_item_uses_fallback_cutoff(self):
        """A cold item scores without its one-hot and faces the fallback."""
        model = build_model(
            [5.0, 3.0],
            [[1.0], [1.0]],
            item_cutoffs=[0.0, 99.0],
            act_cutoffs=[0.0],
            fallback=-1.0,
            cold=(1,),
        )
        selected = select_items(model, 0)
        np.testing.assert_array_equal(selected, [0, 1])
        keen_scorer, _ = model.scorers()
        # the cold item's trained weight and cutoff are both ignored
        assert keen_scorer.score_items(0, np.array([1]))[0] == 0.0


class TestSelectActivities:
    def test_passing_set(self):
        model = two_item_model()
        np.testing.assert_array_equal(select_activities(model, 0, 0), [0, 1])
        np.testing.assert_array_equal(select_activities(model, 0, 1), [0])

    def test_stage_order_enforced(self):
        model = build_model([0.5], [[1.0]], item_cutoffs=[2.0], act_cutoffs=[0.0])
        with pytest.raises(StageOrderError):
            select_activities(model, 0, 0)
        # stage two alone still accepts the pair
        np.testing.assert_array_equal(np.flatnonzero(act_stage(model, 0, np.array([0]))[1][0]), [0])

    def test_empty_activity_set(self):
        model = build_model([1.0], [[-2.0, -3.0]], item_cutoffs=[0.0], act_cutoffs=[0.0, 0.0])
        assert len(select_activities(model, 0, 0)) == 0

    def test_unknown_item(self):
        model = two_item_model()
        with pytest.raises(ValueError):
            select_activities(model, 0, 9)


class TestDecide:
    def test_keen_failure_vetoes(self):
        """A failing first stage rejects the pair no matter the act score."""
        model = build_model([-1.0], [[10.0]], item_cutoffs=[0.0], act_cutoffs=[0.0])
        assert decide(model, 0, 0, 0) is False

    def test_both_pass(self):
        model = two_item_model()
        assert decide(model, 0, 0, 0) is True
        assert decide(model, 0, 1, 1) is False

    def test_composition_agreement(self):
        """decide equals membership in the two selection sets, exhaustively."""
        rng = np.random.default_rng(43)
        for _ in range(10):
            n_items, n_acts = 6, 3
            model = build_model(
                rng.normal(size=n_items),
                rng.normal(size=(n_items, n_acts)),
                rng.normal(size=n_items) * 0.5,
                rng.normal(size=n_acts) * 0.5,
            )
            selected = set(int(v) for v in select_items(model, 0))
            for v in range(n_items):
                acts = (
                    set(int(z) for z in np.flatnonzero(act_stage(model, 0, np.array([v]))[1][0]))
                    if v in selected
                    else set()
                )
                for z in range(n_acts):
                    assert decide(model, 0, v, z) == (v in selected and z in acts)

    def test_out_of_range(self):
        model = two_item_model()
        with pytest.raises(ValueError):
            decide(model, 0, 0, 9)
        with pytest.raises(ValueError):
            decide(model, 0, 9, 0)


class TestRecommend:
    def test_hand_ordering(self):
        """Higher-keen item leads even though the other act score is higher."""
        model = two_item_model()
        recs = recommend(model, 0)
        assert [(e.item, e.activity) for e in recs.entries] == [(0, 0), (0, 1), (1, 0)]
        assert recs.is_ordered()
        np.testing.assert_allclose([e.keen_score for e in recs.entries], [0.9, 0.9, 0.5])
        np.testing.assert_allclose([e.act_score for e in recs.entries], [0.7, 0.2, 0.8])

    def test_truncation(self):
        model = two_item_model()
        recs = recommend(model, 0, k=1)
        assert [(e.item, e.activity) for e in recs.entries] == [(0, 0)]
        with pytest.raises(ValueError):
            recommend(model, 0, k=0)

    def test_items_without_passing_activities_are_dropped(self):
        model = build_model(
            [2.0, 1.0],
            [[-5.0, -5.0], [0.5, -5.0]],
            item_cutoffs=[0.0, 0.0],
            act_cutoffs=[0.0, 0.0],
        )
        recs = recommend(model, 0)
        assert [(e.item, e.activity) for e in recs.entries] == [(1, 0)]

    def test_tie_breaking_by_ascending_ids(self):
        model = build_model(
            [1.0, 1.0],
            [[0.5, 0.5], [0.5, 0.5]],
            item_cutoffs=[0.0, 0.0],
            act_cutoffs=[0.0, 0.0],
        )
        recs = recommend(model, 0)
        assert [(e.item, e.activity) for e in recs.entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_decide_set(self):
        """The flattened list equals the set accepted by decide, brute-forced."""
        rng = np.random.default_rng(47)
        for _ in range(10):
            n_items = int(rng.integers(2, 9))
            n_acts = int(rng.integers(1, 4))
            model = build_model(
                rng.normal(size=n_items),
                rng.normal(size=(n_items, n_acts)),
                rng.normal(size=n_items) * 0.7,
                rng.normal(size=n_acts) * 0.7,
            )
            listed = recommend(model, 0).pairs()
            accepted = {
                (v, z)
                for v in range(n_items)
                for z in range(n_acts)
                if decide(model, 0, v, z)
            }
            assert listed == accepted

    def test_shift_invariance(self):
        """Adding c to every keen score and item cutoff keeps the list fixed."""
        model = two_item_model()
        base = [(e.item, e.activity) for e in recommend(model, 0).entries]
        c = 7.25
        shifted = two_item_model()
        shifted.keen.w0 += c
        shifted.thresholds.item_thresholds += c
        shifted.thresholds.global_item_fallback += c
        moved = recommend(shifted, 0)
        assert [(e.item, e.activity) for e in moved.entries] == base
        np.testing.assert_allclose([e.keen_score for e in moved.entries], [0.9 + c, 0.9 + c, 0.5 + c])

    def test_repeated_calls_identical(self):
        model = two_item_model()
        a = recommend(model, 0)
        b = recommend(model, 0)
        assert [(e.item, e.activity, e.keen_score, e.act_score) for e in a.entries] == [
            (e.item, e.activity, e.keen_score, e.act_score) for e in b.entries
        ]

    def test_random_parameter_models_stay_consistent(self):
        """Uncontrolled random scorers still satisfy order and set equality."""
        rng = np.random.default_rng(53)
        for trial in range(6):
            model = two_item_model(n_users=3)
            model.keen = init_params(model.keen_layout.dim, 4, seed=trial, scale=1.0)
            model.act = init_params(model.act_layout.dim, 4, seed=trial + 100, scale=1.0)
            model.keen.w[:] = rng.normal(size=model.keen_layout.dim)
            model.act.w[:] = rng.normal(size=model.act_layout.dim)
            model._scorers = None
            keen_scorer, _ = model.scorers()
            median = float(np.median(keen_scorer.score_items(0)))
            model.thresholds.item_thresholds[:] = median
            for u in range(3):
                recs = recommend(model, u)
                assert recs.is_ordered()
                accepted = {
                    (v, z)
                    for v in range(model.n_items)
                    for z in range(model.n_activities)
                    if decide(model, u, v, z)
                }
                assert recs.pairs() == accepted


@st.composite
def decision_cases(draw):
    """A build_model model plus the scores and cutoffs it was built from.

    Integer-valued scores make ties, and scores equal to a cutoff, common.
    """
    n_items = draw(st.integers(1, 7))
    n_acts = draw(st.integers(1, 4))
    if draw(st.booleans()):
        value = st.integers(-2, 2).map(float)
    else:
        value = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    keen = np.array(draw(st.lists(value, min_size=n_items, max_size=n_items)))
    act = np.array(draw(st.lists(value, min_size=n_items * n_acts, max_size=n_items * n_acts)))
    act = act.reshape(n_items, n_acts)
    item_cutoffs = np.array(draw(st.lists(value, min_size=n_items, max_size=n_items)))
    act_cutoffs = np.array(draw(st.lists(value, min_size=n_acts, max_size=n_acts)))
    fallback = draw(value)
    cold = draw(st.frozensets(st.integers(0, n_items - 1)))
    model = build_model(keen, act, item_cutoffs, act_cutoffs, fallback=fallback, cold=cold)
    return model, keen, act, item_cutoffs, act_cutoffs, fallback, cold


class TestDecisionPathProperties:
    """recommend, decide and the per-stage selections agree on arbitrary models."""

    @settings(max_examples=300, deadline=None)
    @given(decision_cases())
    def test_all_entry_points_agree(self, case):
        model, keen, act, item_cutoffs, act_cutoffs, fallback, cold = case
        n_items, n_acts = act.shape
        recs = recommend(model, 0)
        accepted = {(v, z) for v in range(n_items) for z in range(n_acts) if decide(model, 0, v, z)}
        assert recs.pairs() == accepted
        assert recs.is_ordered()
        for k in range(1, len(recs) + 2):
            assert recommend(model, 0, k).entries == recs.entries[:k]
        selected = select_items(model, 0)
        for v in range(n_items):
            listed = [z for item, z in sorted(accepted) if item == v]
            if v in selected:
                np.testing.assert_array_equal(select_activities(model, 0, v), listed)
            else:
                assert listed == []
                with pytest.raises(StageOrderError):
                    select_activities(model, 0, v)

        # written out: a cold item scores 0 on both stages (its identity
        # one-hot carries every score) and faces the fallback cutoff
        expected = []
        for v in range(n_items):
            keen_v = 0.0 if v in cold else keen[v]
            cutoff = fallback if v in cold else item_cutoffs[v]
            for z in range(n_acts):
                act_vz = 0.0 if v in cold else act[v, z]
                if keen_v >= cutoff and act_vz >= act_cutoffs[z]:
                    expected.append((-keen_v, v, -act_vz, z))
        got = [(-e.keen_score, e.item, -e.act_score, e.activity) for e in recs.entries]
        assert got == sorted(expected)


class TestOutput:
    def test_written_lines(self, tmp_path):
        model = two_item_model()
        recs = [recommend(model, 0)]
        path = tmp_path / "recs.tsv"
        write_recommendations(recs, path, model.catalog)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        user, item, activity, keen_score, act_score, rank = lines[0].split("\t")
        assert (user, item, activity) == ("u0", "i0", "a0")
        assert float(keen_score) == 0.9
        assert float(act_score) == 0.7
        assert rank == "1"
        assert [line.split("\t")[5] for line in lines] == ["1", "2", "3"]


def reference_lines(model, u, pairs):
    """Reference formatting of one user's list: float() of each numpy score, one lookup per field and pair."""
    keen, act = keen_stage(model, u)[0], act_stage(model, u)[0]
    catalog = model.catalog
    return [
        f"{catalog.users[u]}\t{catalog.items[v]}\t{catalog.activities[z]}\t"
        f"{float(np.float64(keen[v]))!r}\t{float(np.float64(act[v, z]))!r}\t{rank}\n"
        for rank, (v, z) in enumerate(pairs, start=1)
    ]


# finite scores at the edges of float64 next to ordinary ones
edge_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestListPath:
    """Entries and written lines of the array-built recommendation list."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lines_match_per_pair_formatting(self, data):
        n_items = data.draw(st.integers(1, 6))
        n_acts = data.draw(st.integers(1, 3))
        # a few distinct keen values make repeated keen scores common
        pool = data.draw(st.lists(edge_floats, min_size=1, max_size=3))
        keen = data.draw(st.lists(st.sampled_from(pool), min_size=n_items, max_size=n_items))
        act = data.draw(st.lists(edge_floats, min_size=n_items * n_acts, max_size=n_items * n_acts))
        item_cutoffs = data.draw(st.lists(st.sampled_from(pool + [-np.inf]), min_size=n_items, max_size=n_items))
        act_cutoffs = data.draw(st.lists(edge_floats | st.just(-np.inf), min_size=n_acts, max_size=n_acts))
        model = build_model(keen, np.reshape(act, (n_items, n_acts)), item_cutoffs, act_cutoffs, n_users=2)
        recs = [recommend(model, u) for u in range(2)]
        expected = [
            line for rec in recs for line in reference_lines(model, rec.user, [(v, z) for v, z, _, _ in rec.entries])
        ]
        assert list(recommendation_lines(recs, model.catalog)) == expected
        for rec in recs:
            for entry in rec.entries:
                assert [type(x) for x in entry] == [int, int, float, float]

    @given(st.lists(edge_floats, min_size=1, max_size=8))
    def test_tolist_floats_print_as_numpy_floats(self, values):
        """The bytes a score writes do not depend on how it left its array."""
        column = np.array(values, dtype=np.float64)
        assert [repr(x) for x in column.tolist()] == [repr(float(x)) for x in column]

    def test_positional_list_as_the_benchmark_builds_it(self):
        entries = [Recommendation(3, 1, 0.9, 0.5), Recommendation(3, 0, 0.9, 0.2), Recommendation(1, 0, 0.4, 0.8)]
        recs = RecommendationList(0, entries)
        assert recs.is_ordered()
        assert not RecommendationList(0, entries[::-1]).is_ordered()
        assert recs.pairs() == {(3, 1), (3, 0), (1, 0)}
        assert entries[0].keen_score == 0.9 and entries[0] == (3, 1, 0.9, 0.5)
        with pytest.raises(AttributeError):
            entries[0].item = 2
