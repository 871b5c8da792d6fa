"""A cross-version pin on the generated instances themselves.

The golden digest is the SHA-256 of the canonical JSON (sorted keys, no
spaces) of every template instance below, in this order.  The templates
call their seeded `random.Random` once per table cell, so a change to the
order in which a table is built changes the digest here, before any solver
digest downstream.
"""

import hashlib
import json

from nested_dp.decoupled import decoupled_to_json, embed
from nested_dp.generators import certification_instance, convergence_instance, coupled_counterexample, decoupled_instance
from nested_dp.model import model_to_json

INSTANCES_SHA256 = "b3009800bb9786fc73af0aded80e7c435dd58243e26f0d36cc69195eb7266244"


def instance_documents() -> list:
    docs = [model_to_json(certification_instance(s, horizon=T)) for s in range(4) for T in (1, 2, 3)]
    docs += [model_to_json(convergence_instance(s, horizon=T)) for s in range(4) for T in (2, 4)]
    for perfect in (False, True):
        docs += [decoupled_to_json(decoupled_instance(s, 2, perfect)) for s in range(4)]
        docs += [model_to_json(embed(decoupled_instance(s, 3, perfect))) for s in range(4)]
    model, split = coupled_counterexample()
    docs.append([model_to_json(model), list(split)])
    return docs


def test_instances_are_pinned():
    text = json.dumps(instance_documents(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCES_SHA256
