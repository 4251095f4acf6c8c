"""JSON interchange for instances, cost functions, schemes, and reports.

Instance format:
    {"actions": [{"id": "g", "cost": 0.35, "prob": 1.0}, ...],
     "null_id": "bot",
     "cost_fn": {...}}

Scheme format:
    {"suggested": "g", "alpha": 0.35,
     "distribution": [{"set": ["g"], "prob": 0.42857}, ...]}

Cost function formats (weights keyed by action id; "table" values indexed by
bitmask over the instance's action-list order, bit i = actions[i]):
    {"type": "additive", "weights": {"g": 0.1, ...}}
    {"type": "budget_additive", "weights": {...}, "cap": 1.5}
    {"type": "coverage", "universe": 4, "element_weights": [...],
     "covers": {"g": [0, 2], ...}}
    {"type": "concave_cardinality", "table": [0, 1, 1.5, ...]}
    {"type": "table", "values": [...]}
    {"type": "xos", "clauses": [{"g": 0.1, ...}, ...]}
    {"type": "xos_hard", "k": 7, "T": [1, 2, 4, 5, 6, 7], "m": null}
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

# CPython's built-in sha256 gives the same digest as hashlib's without
# loading OpenSSL's libcrypto (several MB of resident memory per process).
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10/3.11
    except ImportError:
        from hashlib import sha256

from . import costfn
from .model import Action, ActionId, InspectionScheme, Instance, ValidationError


class ParseError(ValueError):
    """Raised on malformed JSON structure (missing keys, bad types, non-numbers)."""


# List items per piece of a streamed digest, so that a 2^16-entry table is
# hashed as 16 pieces of text, never as one string. Each piece is spelled by
# json's C encoder or, when its finite floats repeat, from the text of its
# distinct values (_items_text). Also the longest list indented_dumps
# writes: a document with a longer one is streamed by json.dump.
_PIECE_ITEMS = 4096
_SAMPLE_STRIDE = 16  # every 16th item of a piece is sampled to pick its encoder


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(doc: dict) -> str:
    """sha256 of canonical_dumps(doc); that text defines the digest.

    A document with no list longer than _PIECE_ITEMS is hashed in one call.
    Otherwise its text is hashed piece by piece, each long list in pieces of
    _PIECE_ITEMS items. A piece of finite floats that repeat (a hidden-shift
    table has 12 distinct values in 65,536) costs one float-to-text
    conversion per distinct value; any other piece goes through json's C
    encoder. The bytes hashed are the same either way.
    """
    if not _has_long_list(doc):
        return sha256(canonical_dumps(doc).encode()).hexdigest()
    digest = sha256()
    for piece in _canonical_pieces(doc):
        digest.update(piece.encode())
    return digest.hexdigest()


def _has_long_list(obj: Any) -> bool:
    if isinstance(obj, list):
        return len(obj) > _PIECE_ITEMS or any(
            _has_long_list(item) for item in obj if isinstance(item, (list, dict)))
    if isinstance(obj, dict):
        return any(_has_long_list(value) for value in obj.values())
    return False


def _canonical_pieces(obj: Any):
    """canonical_dumps(obj) in pieces, so that a 2^16-entry table is never one string."""
    if isinstance(obj, list) and len(obj) > _PIECE_ITEMS:
        for k in range(0, len(obj), _PIECE_ITEMS):
            yield ("[" if k == 0 else ",") + _items_text(obj[k:k + _PIECE_ITEMS])
        yield "]"
    elif isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        for k, key in enumerate(sorted(obj)):
            yield ("{" if k == 0 else ",") + canonical_dumps(key) + ":"
            yield from _canonical_pieces(obj[key])
        yield "}"
    else:
        yield canonical_dumps(obj)


def _items_text(items: list) -> str:
    """canonical_dumps(items) without its brackets.

    When every _SAMPLE_STRIDE-th item is a float and at most half of those
    are distinct, the items are spelled from a memo of their distinct
    values' text; an all-distinct piece pays only for the sample and keeps
    json's C encoder.
    """
    sample = items[::_SAMPLE_STRIDE]
    if set(map(type, sample)) == {float} and 2 * len(set(sample)) <= len(sample):
        text = _float_texts(items)
        if text is not None:
            return ",".join(map(text.__getitem__, items))
    return canonical_dumps(items)[1:-1]


def _float_texts(items: list) -> dict | None:
    """json's text of each distinct item, keyed by value; None unless every
    item is exactly a finite float and all zeros share one sign.

    The checks guard the value keys: 1, 1.0 and True are one key, as are
    0.0 and -0.0, and json spells NaN and the infinities its own way.
    """
    if set(map(type, items)) != {float}:
        return None
    distinct = set(items)
    if not all(map(math.isfinite, distinct)):
        return None
    if 0.0 in distinct and len(
            {math.copysign(1.0, z) for z in filter((0.0).__eq__, items)}) > 1:
        return None
    return {value: float.__repr__(value) for value in distinct}


_INDENT = "  "
# The scalar types, exact, that indented_dumps spells itself (a float only
# when finite) and whose containers it hands whole to the C encoder.
_SPELL = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
          bool: ("false", "true").__getitem__, type(None): {None: "null"}.__getitem__}
_SCALARS = frozenset(_SPELL)


class _NeedsJsonDump(Exception):
    """The document holds something indented_dumps leaves to json.dump."""


class _Levels(dict):
    """depth -> (json's C encoder whose item separator carries the indent of
    items at that depth, that separator, the newline and indent before such
    an item); built on first use."""

    def __missing__(self, depth: int) -> tuple[Any, str, str]:
        pad = "\n" + _INDENT * depth
        self[depth] = (json.encoder.c_make_encoder(
            None, _not_json, encode_basestring_ascii, None, ": ", "," + pad,
            True, False, True), "," + pad, pad)
        return self[depth]


_levels = _Levels()


def _not_json(obj: Any):
    raise _NeedsJsonDump


def indented_dumps(doc: Any) -> str | None:
    """Exactly json.dumps(doc, indent=2, sort_keys=True), or None.

    A container whose items are all of exact type str, int, float, bool or
    None is spelled by json's C encoder, whose separators carry the indent
    of its depth; other containers are laid out here, with str keys, exact
    scalars and finite floats spelled directly and anything else by the C
    encoder. None means json.dump must write the document: it holds a list
    longer than _PIECE_ITEMS items (json.dump streams its text), a key that
    is not exactly str or a value that is not JSON, or the C encoder is
    missing.
    """
    if json.encoder.c_make_encoder is None:
        return None
    try:
        return _text(doc, 0)
    except (_NeedsJsonDump, RecursionError):  # json.dump reports a circular document
        return None


def _text(obj: Any, depth: int) -> str:
    """The text of obj, a value at indent depth `depth`."""
    spell = _SPELL.get(type(obj))
    if spell is not None and (spell is not float.__repr__ or math.isfinite(obj)):
        return spell(obj)
    if isinstance(obj, dict):
        return _dict_text(obj, depth)
    if isinstance(obj, (list, tuple)):
        return _list_text(obj, depth)
    # NaN, the infinities and scalar subclasses; _not_json refuses the rest.
    return "".join(_levels[depth][0](obj, 0))


def _dict_text(obj: dict, depth: int) -> str:
    if not obj:
        return "{}"
    if set(map(type, obj)) != {str}:
        raise _NeedsJsonDump
    encoder, sep, pad = _levels[depth + 1]
    if _SCALARS.issuperset(map(type, obj.values())):
        return "{" + pad + "".join(encoder(obj, 0))[1:-1] + _levels[depth][2] + "}"
    items = []
    for key in sorted(obj):
        value = obj[key]
        spell = _SPELL.get(type(value))  # scalars inline: a call each is measurable
        if spell is not None and (spell is not float.__repr__ or math.isfinite(value)):
            items.append(encode_basestring_ascii(key) + ": " + spell(value))
        else:
            items.append(encode_basestring_ascii(key) + ": " + _text(value, depth + 1))
    return "{" + pad + sep.join(items) + _levels[depth][2] + "}"


def _list_text(obj: list | tuple, depth: int) -> str:
    if not obj:
        return "[]"
    if len(obj) > _PIECE_ITEMS:
        raise _NeedsJsonDump
    encoder, sep, pad = _levels[depth + 1]
    if _SCALARS.issuperset(map(type, obj)):
        body = "".join(encoder(obj, 0))[1:-1]
    else:
        body = sep.join([_text(item, depth + 1) for item in obj])
    return "[" + pad + body + _levels[depth][2] + "]"


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing key {key!r}")
    return doc[key]


def _weights_vector(weights: dict, ids: list[ActionId]) -> list[float]:
    unknown = set(weights) - set(ids)
    if unknown:
        raise ParseError(f"weights reference unknown actions {sorted(unknown)}")
    return [float(weights.get(j, 0.0)) for j in ids]


def cost_fn_from_json(doc: dict, ids: list[ActionId]) -> costfn.SetFunction:
    """Build the cost function; a constructor's value checks fail as ValidationError."""
    try:
        return _cost_fn_from_json(doc, ids)
    except ParseError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _cost_fn_from_json(doc: dict, ids: list[ActionId]) -> costfn.SetFunction:
    kind = _require(doc, "type")
    if kind == "additive":
        return costfn.Additive(_weights_vector(_require(doc, "weights"), ids))
    if kind == "budget_additive":
        return costfn.BudgetAdditive(
            _weights_vector(_require(doc, "weights"), ids), float(_require(doc, "cap")))
    if kind == "coverage":
        universe = int(_require(doc, "universe"))
        covers_doc = _require(doc, "covers")
        if not isinstance(covers_doc, dict):
            raise ParseError("coverage covers must map action ids to element lists")
        covers = []
        for j in ids:
            mask = 0
            for e in covers_doc.get(j, []):
                mask |= 1 << int(e)
            covers.append(mask)
        return costfn.WeightedCoverage(universe, covers, _require(doc, "element_weights"))
    if kind == "concave_cardinality":
        return costfn.ConcaveCardinality(_require(doc, "table"))
    if kind == "table":
        values = _require(doc, "values")
        if len(values) != 1 << len(ids):
            raise ParseError("table length must be 2^n for n actions")
        return costfn.ExplicitTable(values)
    if kind == "xos":
        clauses = [_weights_vector(c, ids) for c in _require(doc, "clauses")]
        return costfn.XOSClauses(clauses)
    if kind == "xos_hard":
        from .families import HardParams, VTCost
        params = HardParams(int(_require(doc, "k")),
                            frozenset(int(t) for t in _require(doc, "T")),
                            doc.get("m"))
        return VTCost(params)
    raise ParseError(f"unknown cost_fn type {kind!r}")


def cost_fn_to_json(fn: costfn.SetFunction, ids: list[ActionId]) -> dict:
    """The JSON form of a cost of one of the built-in types, chosen by its
    exact type: a subclass may override `value`, so it has no JSON form."""
    def weights_doc(w):
        return {j: w[i] for i, j in enumerate(ids) if w[i] != 0.0}

    kind = type(fn)
    if kind is costfn.Additive:
        return {"type": "additive", "weights": weights_doc(fn.weights)}
    if kind is costfn.BudgetAdditive:
        return {"type": "budget_additive", "weights": weights_doc(fn.weights), "cap": fn.cap}
    if kind is costfn.WeightedCoverage:
        return {
            "type": "coverage",
            "universe": fn.universe,
            "element_weights": list(fn.element_weights),
            "covers": {j: sorted(costfn.bits(fn.covers[i])) for i, j in enumerate(ids)
                       if fn.covers[i]},
        }
    if kind is costfn.ConcaveCardinality:
        return {"type": "concave_cardinality", "table": list(fn.g)}
    if kind is costfn.ExplicitTable:
        return {"type": "table", "values": fn.values.tolist()}
    if kind is costfn.XOSClauses:
        return {"type": "xos", "clauses": [weights_doc(c) for c in fn.clauses]}
    from .families import VTCost
    if kind is VTCost:
        return {"type": "xos_hard", "k": fn.params.k, "T": sorted(fn.params.T),
                "m": fn.params.m_override}
    raise ParseError(f"cost function {type(fn).__name__} has no JSON form")


def instance_from_json(doc: dict) -> Instance:
    try:
        actions_doc = _require(doc, "actions")
        actions = tuple(
            Action(str(_require(a, "id")), float(_require(a, "cost")), float(_require(a, "prob")))
            for a in actions_doc
        )
        ids = [a.id for a in actions]
        fn = cost_fn_from_json(_require(doc, "cost_fn"), ids)
        null_id = str(_require(doc, "null_id"))
    except (ParseError, ValidationError):
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    return Instance(actions, null_id, fn)


def instance_to_json(inst: Instance) -> dict:
    return {
        "actions": [{"id": a.id, "cost": a.cost, "prob": a.prob} for a in inst.actions],
        "null_id": inst.null_id,
        "cost_fn": cost_fn_to_json(inst.cost_fn, list(inst.ids)),
    }


def scheme_from_json(doc: dict) -> InspectionScheme:
    try:
        dist = [(frozenset(str(j) for j in _require(e, "set")), float(_require(e, "prob")))
                for e in _require(doc, "distribution")]
        return InspectionScheme(str(_require(doc, "suggested")),
                                float(_require(doc, "alpha")), dist)
    except (ParseError, ValidationError):
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def scheme_to_json(scheme: InspectionScheme) -> dict:
    return {
        "suggested": scheme.suggested,
        "alpha": scheme.alpha,
        "distribution": [{"set": sorted(s), "prob": p} for s, p in scheme.distribution],
    }


def _read_json(path: str) -> Any:
    """The JSON document in the file at path; ParseError when the file cannot
    be opened (missing, a directory, unreadable), decoded or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except OSError as exc:  # its text names the path
        raise ParseError(str(exc)) from exc


def load_instance(path: str) -> Instance:
    return instance_from_json(_read_json(path))


def load_scheme(path: str) -> InspectionScheme:
    return scheme_from_json(_read_json(path))
