import hashlib
import json
import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import costfn, serialization
from icx.families import HardParams, VTCost, gen_gap_instance, gen_intro_example
from icx.model import InspectionScheme
from icx.reports import compute_digest
from icx.serialization import (ParseError, canonical_dumps, instance_digest,
                               instance_from_json, instance_to_json,
                               scheme_from_json, scheme_to_json)
from conftest import Squared


def roundtrip(doc):
    return instance_to_json(instance_from_json(doc))


class TestInstanceRoundTrip:
    def test_intro_additive(self):
        doc = instance_to_json(gen_intro_example())
        assert doc["null_id"] == "bot"
        assert roundtrip(doc) == doc

    def test_gap(self):
        doc = instance_to_json(gen_gap_instance(8))
        assert roundtrip(doc) == doc

    def test_every_cost_kind(self):
        kinds = {
            "budget_additive": costfn.BudgetAdditive([0.5, 0.25], 0.6),
            "coverage": costfn.WeightedCoverage(3, [0b011, 0b100], [1.0, 0.5, 0.25]),
            "concave_cardinality": costfn.ConcaveCardinality([0.0, 1.0, 1.5]),
            "table": costfn.ExplicitTable([0.0, 0.5, 0.25, 1.0]),
            "xos": costfn.XOSClauses([[0.5, 0.0], [0.25, 0.25]]),
        }
        base = instance_to_json(gen_intro_example())["actions"][:2]
        for kind, fn in kinds.items():
            doc = {"actions": base, "null_id": "bot",
                   "cost_fn": serialization.cost_fn_to_json(fn, ["bot", "b"])}
            assert doc["cost_fn"]["type"] == kind
            got = instance_from_json(doc)
            for mask in range(4):
                assert got.cost_fn.value(mask) == fn.value(mask)
            assert roundtrip(doc) == doc

    def test_xos_hard_roundtrip(self):
        params = HardParams(7, frozenset([1, 2, 3, 4, 5, 7]))
        with pytest.raises(ParseError):
            instance_from_json({"actions": [], "null_id": "bot",
                                "cost_fn": {"type": "xos_hard"}})
        from icx.families import gen_xos_hard
        inst = gen_xos_hard(params)
        full = instance_to_json(inst)
        assert full["cost_fn"] == {"type": "xos_hard", "k": 7,
                                   "T": [1, 2, 3, 4, 5, 7], "m": None}
        back = instance_from_json(full)
        assert isinstance(back.cost_fn, VTCost)
        for mask in (0, 5, 0b1111000, 1 << 9):
            assert back.cost_fn.value(mask) == inst.cost_fn.value(mask)

    def test_missing_key(self):
        with pytest.raises(ParseError):
            instance_from_json({"actions": []})

    def test_unknown_cost_type(self):
        with pytest.raises(ParseError):
            instance_from_json({"actions": [{"id": "bot", "cost": 0, "prob": 0}],
                                "null_id": "bot", "cost_fn": {"type": "wat"}})

    def test_weights_must_reference_known_actions(self):
        with pytest.raises(ParseError):
            instance_from_json({
                "actions": [{"id": "bot", "cost": 0, "prob": 0}],
                "null_id": "bot",
                "cost_fn": {"type": "additive", "weights": {"zzz": 1.0}}})


class TestSchemeRoundTrip:
    def test_basic(self):
        s = InspectionScheme("g", 0.375, [(frozenset(["g"]), 1 / 3),
                                          (frozenset(), 2 / 3)])
        doc = scheme_to_json(s)
        assert doc["distribution"][0]["set"] == ["g"]
        back = scheme_from_json(doc)
        assert back == s

    def test_missing_field(self):
        with pytest.raises(ParseError):
            scheme_from_json({"suggested": "g", "alpha": 0.5})


class TestDigest:
    def test_stable_and_sensitive(self):
        doc = instance_to_json(gen_intro_example())
        d1 = instance_digest(doc)
        d2 = instance_digest(json.loads(json.dumps(doc)))
        assert d1 == d2
        doc["actions"][0]["prob"] = 0.11
        assert instance_digest(doc) != d1

    def test_canonical_is_key_order_free(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})

    def test_digest_hashes_the_canonical_text(self, rng):
        # Long lists are hashed in pieces; the bytes hashed must not change.
        table = [rng.choice([0.0, 1.0, rng.random(), 1e-300, float("inf")])
                 for _ in range(3 * 4096 + 5)]
        docs = [
            instance_to_json(gen_intro_example()),
            {"cost_fn": {"type": "table", "values": table}, "z": {}, "a": [[1, 2], {"é": None}]},
            {"values": table[:4096]}, {"values": table[:4097]}, {1: "int key"}, [], {},
        ]
        for doc in docs:
            expected = hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()
            assert instance_digest(doc) == expected

    def test_small_documents_hashed_in_one_call(self, monkeypatch, rng):
        # A document with no list longer than _PIECE_ITEMS is encoded in one
        # canonical_dumps call. A 2^16-entry table is hashed in pieces of at
        # most _PIECE_ITEMS items: spelled from its distinct values when they
        # repeat, by canonical_dumps when all are distinct.
        calls, pieces = [], []
        dumps, items_text = serialization.canonical_dumps, serialization._items_text
        monkeypatch.setattr(serialization, "canonical_dumps",
                            lambda obj: calls.append(obj) or dumps(obj))
        monkeypatch.setattr(serialization, "_items_text",
                            lambda items: pieces.append(len(items)) or items_text(items))
        doc = instance_to_json(gen_gap_instance(16))
        instance_digest(doc)
        assert calls == [doc] and pieces == []
        repeated = [0.5] * (1 << 16)
        distinct = [rng.random() for _ in range(1 << 16)]
        for values, dumped in ((repeated, 0), (distinct, 16)):
            calls.clear()
            pieces.clear()
            instance_digest({"cost_fn": {"type": "table", "values": values}})
            assert pieces == [serialization._PIECE_ITEMS] * 16
            assert sum(isinstance(c, list) for c in calls) == dumped

    def test_float_texts_guards_value_keys(self):
        texts = serialization._float_texts
        assert texts([0.5, -0.0, 0.5, -0.0]) == {0.5: "0.5", 0.0: "-0.0"}
        assert texts([0.0, 0.25] * 8) == {0.0: "0.0", 0.25: "0.25"}
        assert texts([0.0, -0.0, 0.5]) is None
        for odd in (1, True, float("nan"), float("inf"), -float("inf"), "1.0", None):
            assert texts([1.0] * 8 + [odd]) is None


# Palettes of floats repeat, so pieces take the memo path; the odd items
# land anywhere, sampled or not, so each guard of that path is exercised.
_FLOATS = [0.0, -0.0, 1.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           float("nan"), float("inf"), -float("inf"), 1e300, 0.1]
_ODD = [0.0, -0.0, 1, True, False, 0, float("nan"), float("inf"), None, "1.0"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(palette=st.lists(st.one_of(st.floats(), st.sampled_from(_FLOATS)),
                        min_size=1, max_size=12),
       odd=st.lists(st.sampled_from(_ODD), max_size=3),
       length=st.sampled_from([4095, 4096, 4097, 3 * 4096 + 5]),
       seed=st.integers(0, 2**32 - 1))
def test_digest_of_long_lists_is_sha256_of_canonical_text(palette, odd, length, seed):
    rng = random.Random(seed)
    values = [rng.choice(palette) for _ in range(length)]
    for item in odd:
        values[rng.randrange(length)] = item
    for doc in ({"cost_fn": {"type": "table", "values": values}}, {"a": values, "b": [values]}):
        expected = hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()
        assert instance_digest(doc) == expected


class _Float(float):
    pass


class _Int(int):
    pass


_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2**53 + 1, -(2**63), True, False, 0, 1]),
    st.floats(), st.sampled_from([-0.0, 5e-324, -2.5e-310, 2**53 + 1.0, float("nan"),
                                  float("inf"), -float("inf")]),
    st.text(), st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", " ",
                                "é", "\U0001f600", "\ud800", "}, {"]),
    st.builds(_Float, st.floats()), st.builds(_Int, st.integers()))
_KEY = st.one_of(st.text(max_size=8), st.text(max_size=8), st.integers(), st.floats(),
                 st.booleans(), st.none())


def _containers(children):
    return st.one_of(st.lists(children, max_size=6),
                     st.lists(children, max_size=6).map(tuple),
                     st.dictionaries(_KEY, children, max_size=6))


def _nested5(value):
    """value inside five containers: list, dict, tuple, dict, list."""
    for wrap in (lambda v: [v], lambda v: {"k": v}, lambda v: (v,),
                 lambda v: {"": v, "a": [v]}, lambda v: [v, 1]):
        value = wrap(value)
    return value


# Lists at the long-list boundary, made from a few drawn scalars repeated.
_EDGE_LIST = st.tuples(st.sampled_from([4096, 4097]),
                       st.lists(_SCALAR, min_size=1, max_size=3)).map(
    lambda t: (t[1] * t[0])[:t[0]])
_DOC = st.one_of(
    st.recursive(_SCALAR, _containers, max_leaves=40),
    st.recursive(_SCALAR, _containers, max_leaves=8).map(_nested5),
    st.dictionaries(st.text(max_size=4), st.one_of(_EDGE_LIST, _SCALAR), max_size=3),
    _EDGE_LIST)


def _writable(doc) -> bool:
    """No dict key other than an exact str and no list longer than 4,096 items."""
    if isinstance(doc, dict):
        return all(type(key) is str for key in doc) and all(map(_writable, doc.values()))
    if isinstance(doc, (list, tuple)):
        return len(doc) <= serialization._PIECE_ITEMS and all(map(_writable, doc))
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_DOC)
def test_indented_dumps_is_json_dumps_with_indent(doc):
    text = serialization.indented_dumps(doc)
    try:
        expected = json.dumps(doc, indent=2, sort_keys=True)
    except (TypeError, ValueError):  # keys of mixed types cannot be sorted
        expected = None
    if not _writable(doc):
        assert text is None
    elif text != expected:  # a plain assert would have pytest diff texts of 40 kB for minutes
        text = text or ""
        at = next(i for i, (a, b) in enumerate(zip_longest(text, expected)) if a != b)
        lo = max(at - 40, 0)
        pytest.fail(f"differs from json.dumps at offset {at}: "
                    f"{text[lo:at + 40]!r} != {expected[lo:at + 40]!r}")


def test_indented_dumps_refuses_what_json_dump_must_write():
    assert serialization.indented_dumps([0.5] * 4096) is not None
    assert serialization.indented_dumps({"a": [[0.5] * 4097]}) is None
    assert serialization.indented_dumps({"a": {1: 2}}) is None
    assert serialization.indented_dumps({"a": [{1, 2}]}) is None
    assert serialization.indented_dumps({"a": object()}) is None
    loop = []
    loop.append(loop)
    assert serialization.indented_dumps(loop) is None


class _Opaque(costfn.SetFunction):
    """A cost type with no JSON form."""

    n = 3

    def value(self, mask):
        return float(mask.bit_count())


class TestRejectPaths:
    @pytest.mark.parametrize("length", [0, 2, 4, 7, 16])
    def test_table_length_must_match_action_count(self, length):
        doc = instance_to_json(gen_intro_example())
        doc["cost_fn"] = {"type": "table", "values": [0.0] * length}
        with pytest.raises(ParseError, match="^table length must be 2\\^n for n actions$"):
            instance_from_json(doc)

    def test_no_json_form_has_no_digest(self):
        inst = gen_intro_example().with_cost_fn(_Opaque())
        with pytest.raises(ParseError, match="^cost function _Opaque has no JSON form$"):
            instance_to_json(inst)
        assert compute_digest(inst) is None

    def test_subclass_has_no_json_form(self):
        # Squared overrides `value`, so writing it as plain additive would
        # give a report the digest of a different cost.
        plain = gen_intro_example().with_cost_fn(costfn.Additive([0.5, 0.25, 1.0]))
        inst = plain.with_cost_fn(Squared([0.5, 0.25, 1.0]))
        assert inst.cost_fn.value(0b111) != plain.cost_fn.value(0b111)
        with pytest.raises(ParseError, match="^cost function Squared has no JSON form$"):
            instance_to_json(inst)
        assert compute_digest(inst) is None
        assert compute_digest(plain) is not None
