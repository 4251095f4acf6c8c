import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import costfn
from icx.families import gen_intro_example, gen_nonic_example
from icx.model import (Action, InspectionScheme, Instance, ValidationError,
                       agent_utility, best_responses, deterministic_scheme,
                       is_IC, marginal, principal_utility)


class _Sizeless(costfn.SetFunction):
    """A cost that never states its ground-set size."""

    def value(self, mask):
        return 0.0


class _Sized(costfn.SetFunction):
    """A cost stating the ground-set size it is given, of whatever type."""

    def __init__(self, n):
        self.n = n

    def value(self, mask):
        return 0.0


def normalize_scheme(inst, scheme):
    """Move all mass on subsets containing the suggested action to its singleton.

    Preserves every agent utility exactly and weakly increases the principal's
    utility for monotone inspection costs; preserves determinism.
    """
    i = scheme.suggested
    singleton_mass = 0.0
    rest = []
    for s, p in scheme.distribution:
        if i in s:
            singleton_mass += p
        else:
            rest.append((s, p))
    if singleton_mass == 0.0:
        return scheme
    rest.append((frozenset([i]), singleton_mass))
    return InspectionScheme(i, scheme.alpha, rest)


def scheme(suggested, alpha, dist):
    return InspectionScheme(suggested, alpha, [(frozenset(s), p) for s, p in dist])


class TestValidation:
    def test_action_bounds(self):
        with pytest.raises(ValidationError):
            Action("a", -0.1, 0.5)
        with pytest.raises(ValidationError):
            Action("a", 0.1, 1.5)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match="finite"):
                Action("a", bad, 0.5)
            with pytest.raises(ValidationError):
                Action("a", 0.1, bad)

    def test_action_is_compact(self):
        # Instances are held by the thousand (generated families, batch
        # runs): an Action keeps no per-object dict, and equal ids share
        # one interned string.
        a = Action("".join(["a", "7"]), 0.1, 0.5)
        assert not hasattr(a, "__dict__")
        assert a.id is Action("a7", 0.2, 0.6).id
        assert a == Action("a7", 0.1, 0.5)

    def test_action_values_read_back_exactly(self):
        # Cost and probability come back as the floats given (a -0.0 cost
        # keeps its sign), and the action stays immutable and picklable.
        a = Action("a", 0.1 + 0.2, 1 / 3)
        assert (a.cost, a.prob) == (0.1 + 0.2, 1 / 3)
        assert math.copysign(1.0, Action("a", -0.0, 0.5).cost) == -1.0
        assert a == pickle.loads(pickle.dumps(a))
        assert hash(a) == hash(Action("a", 0.1 + 0.2, 1 / 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.cost = 0.5

    def test_int_inputs_read_back_as_floats(self):
        a = Action("a", 0, 1)
        assert (type(a.cost), type(a.prob)) == (float, float)
        assert (a.cost, a.prob) == (0.0, 1.0)

    @pytest.mark.parametrize("actions, cost_fn, message", [
        ((), costfn.Additive([]), "instance needs at least one action"),
        (tuple(Action(f"a{k}", 0.0, 0.5) for k in range(31)),
         costfn.Additive([0.0] * 31), "at most 30 actions supported"),
        ((Action("a0", 0.0, 0.5),), costfn.Additive([0.0, 0.0]),
         "cost function ground-set size != number of actions"),
        ((Action("a0", 0.0, 0.5),), _Sizeless(), "cost function has no ground-set size n"),
        ((Action("a0", 0.0, 0.5), Action("a1", 0.1, 0.5)), _Sized(2.0),
         "cost function ground-set size n must be an int, not 2.0"),
        ((Action("a0", 0.0, 0.5),), _Sized(True),
         "cost function ground-set size n must be an int, not True"),
    ], ids=["empty", "31-actions", "wrong-ground-set", "no-ground-set-size",
            "float-ground-set-size", "bool-ground-set-size"])
    def test_instance_rejects(self, actions, cost_fn, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Instance(actions, "a0", cost_fn)

    def test_instance_id_lookups(self):
        inst = gen_intro_example()
        for k, a in enumerate(inst.actions):
            assert inst.index(a.id) == k
            assert inst.action(a.id) is a
        for lookup in (inst.index, inst.action, inst.f, inst.c):
            with pytest.raises(ValidationError, match="unknown action id 'zzz'"):
                lookup("zzz")
        assert inst == gen_intro_example() and hash(inst) == hash(gen_intro_example())

    def test_instance_needs_null(self):
        with pytest.raises(ValidationError):
            Instance((Action("a", 0.1, 0.5),), "bot", costfn.Additive([1.0]))

    def test_null_must_be_free(self):
        with pytest.raises(ValidationError):
            Instance((Action("bot", 0.2, 0.0),), "bot", costfn.Additive([1.0]))

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError):
            Instance((Action("bot", 0.0, 0.0), Action("bot", 0.0, 0.1)),
                     "bot", costfn.Additive([1.0, 1.0]))

    def test_scheme_probabilities_sum_to_one(self):
        with pytest.raises(ValidationError):
            scheme("g", 0.5, [({"g"}, 0.6), (set(), 0.5)])

    def test_scheme_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            scheme("g", 0.5, [({"g"}, -0.2), (set(), 1.2)])

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_scheme_rejects_non_finite_probability(self, p):
        with pytest.raises(ValidationError, match="not finite"):
            scheme("g", 0.35, [({"g"}, p)])
        with pytest.raises(ValidationError, match="not finite"):
            scheme("g", 0.35, [({"g"}, p), (set(), 1.0)])

    def test_scheme_rejects_duplicate_subsets(self):
        with pytest.raises(ValidationError):
            scheme("g", 0.5, [({"g"}, 0.5), ({"g"}, 0.5)])

    def test_scheme_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            scheme("g", 1.5, [(set(), 1.0)])


class TestMarginal:
    def test_empty_support(self):
        s = scheme("g", 0.5, [(set(), 1.0)])
        assert marginal(s, "g") == 0.0

    def test_single_containing_set(self):
        s = scheme("g", 0.35, [({"g"}, 3 / 7), (set(), 4 / 7)])
        assert marginal(s, "g") == pytest.approx(3 / 7, abs=1e-15)

    def test_unknown_action_is_input_error(self):
        inst = gen_intro_example()
        with pytest.raises(ValidationError):
            agent_utility(inst, scheme("g", 0.5, [(set(), 1.0)]), "zzz")


class TestUtilities:
    def test_intro_deviation_always_caught(self):
        # Inspecting the suggestion with certainty leaves a deviator -c(b).
        inst = gen_intro_example()
        s = deterministic_scheme("g", 7 / 20, ["g"])
        assert agent_utility(inst, s, "b") == pytest.approx(-0.1, abs=1e-15)

    def test_intro_principal_utility(self):
        inst = gen_intro_example()
        s = deterministic_scheme("g", 7 / 20, ["g"])
        assert principal_utility(inst, s, "g") == pytest.approx(11 / 20, abs=1e-12)

    def test_null_scheme_gives_agent_zero(self):
        inst = gen_intro_example()
        s = scheme("bot", 0.0, [(set(), 1.0)])
        assert agent_utility(inst, s, "bot") == 0.0

    def test_nonic_principal_utility_off_path(self):
        inst, s, refs = gen_nonic_example()
        assert principal_utility(inst, s, "2") == pytest.approx(
            refs["non_ic_principal_utility"], abs=1e-12)

    def test_deterministic_self_inspection_catches_everybody(self):
        inst = gen_intro_example()
        s = deterministic_scheme("b", 0.4, ["b"])
        for j in inst.ids:
            if j != "b":
                assert agent_utility(inst, s, j) == -inst.c(j)


class TestBestResponses:
    def test_nonic_three_way_tie(self):
        inst, s, _ = gen_nonic_example()
        assert best_responses(inst, s, 1e-12) == {"bot", "1", "2"}
        assert is_IC(inst, s, 1e-12)  # suggested bot is (tied) best response

    def test_intro_randomized_bullet_is_not_ic(self):
        # At payment 7/20 with the suggestion inspected w.p. 3/7, opting out
        # pays the agent 1/50 > 0, so the null action is the strict best
        # response and the scheme fails IC.
        inst = gen_intro_example()
        s = scheme("g", 7 / 20, [({"g"}, 3 / 7), (set(), 4 / 7)])
        assert agent_utility(inst, s, "bot") == pytest.approx(1 / 50, abs=1e-15)
        assert best_responses(inst, s, 1e-9) == {"bot"}
        assert not is_IC(inst, s, 1e-9)

    def test_zero_payment_null_scheme(self):
        inst = gen_intro_example()
        s = scheme("bot", 0.0, [(set(), 1.0)])
        responses = best_responses(inst, s, 0.0)
        assert "bot" in responses
        assert responses == {j for j in inst.ids if inst.c(j) == 0.0}
        assert is_IC(inst, s, 0.0)


class TestNormalize:
    def test_moves_mass_to_singleton(self):
        inst = gen_intro_example()
        s = scheme("g", 0.5, [({"g", "b"}, 0.4), (set(), 0.6)])
        out = normalize_scheme(inst, s)
        assert dict(out.distribution) == {frozenset(["g"]): 0.4, frozenset(): 0.6}

    def test_fixed_point_without_suggested(self):
        inst = gen_intro_example()
        s = scheme("g", 0.5, [({"b"}, 0.4), (set(), 0.6)])
        assert normalize_scheme(inst, s) is s

    def test_merges_all_suggested_sets(self):
        inst = gen_intro_example()
        s = scheme("g", 0.5, [({"g"}, 0.25), ({"g", "b"}, 0.25), ({"b"}, 0.5)])
        out = normalize_scheme(inst, s)
        assert marginal(out, "g") == pytest.approx(0.5, abs=1e-15)
        assert out.is_deterministic() is False


@st.composite
def instance_and_scheme(draw):
    n = draw(st.integers(2, 5))
    probs = draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    costs = draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    actions = [Action("bot", 0.0, probs[0])]
    actions += [Action(f"a{i}", costs[i], probs[i]) for i in range(1, n)]
    weights = draw(st.lists(st.floats(0, 2, allow_nan=False), min_size=n, max_size=n))
    inst = Instance(tuple(actions), "bot", costfn.Additive(weights))
    suggested = draw(st.sampled_from([a.id for a in actions]))
    alpha = draw(st.floats(0, 1, allow_nan=False))
    n_sets = draw(st.integers(1, 4))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n_sets,
                          max_size=n_sets, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1, allow_nan=False), min_size=n_sets,
                        max_size=n_sets))
    total = sum(raw)
    dist = [(inst.ids_of(m), w / total) for m, w in zip(masks, raw)]
    # Repair float round-off so the test exercises semantics, not validation.
    gap = 1.0 - sum(p for _, p in dist)
    dist[-1] = (dist[-1][0], dist[-1][1] + gap)
    return inst, InspectionScheme(suggested, alpha, dist)


@settings(max_examples=150, deadline=None)
@given(instance_and_scheme())
def test_normalize_preserves_agent_utilities(pair):
    inst, s = pair
    out = normalize_scheme(inst, s)
    for j in inst.ids:
        assert agent_utility(inst, out, j) == pytest.approx(
            agent_utility(inst, s, j), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(instance_and_scheme())
def test_normalize_weakly_improves_principal(pair):
    inst, s = pair
    out = normalize_scheme(inst, s)
    assert principal_utility(inst, out, s.suggested) >= \
        principal_utility(inst, s, s.suggested) - 1e-12


@settings(max_examples=150, deadline=None)
@given(instance_and_scheme())
def test_scheme_mass_and_marginals(pair):
    inst, s = pair
    assert abs(sum(p for _, p in s.distribution) - 1.0) <= 1e-12
    for j in inst.ids:
        assert -1e-15 <= marginal(s, j) <= 1.0 + 1e-12
