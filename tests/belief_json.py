"""Decoders of the `Belief1.to_json` and `Belief2.to_json` documents, for
the round-trip and golden-file tests.  Nothing in the package reads a
belief document.  The decoders trust the document's shape; the weights
go through `from_weights`, which raises ValueError on an empty belief, on
weights that do not sum to one, and on an inner belief at another time."""

from nested_dp.beliefs import Belief1, Belief2
from nested_dp.model import parse_ratio


def belief1_from_json(doc: dict) -> Belief1:
    weights = {(x, tuple(ell)): parse_ratio(w) for (x, ell), w in doc["entries"]}
    return Belief1.from_weights(doc["t"], weights)


def belief2_from_json(doc: dict) -> Belief2:
    weights = {(x, tuple(ell), belief1_from_json(b1)): parse_ratio(w) for (x, ell, b1), w in doc["entries"]}
    return Belief2.from_weights(doc["t"], weights)
