"""The differential harness (tests/differential.py) in the suite.

The shipped corpus has no sin, cos or exp and no fractional power, so its
goldens cannot show an evaluator that gets a bit wrong on them; generated
documents have all of these.
"""

from differential import draw, record
from fingerprints import differential_fingerprint, differing
from reference import per_sample_only


def test_generated_documents_give_the_per_sample_outcomes():
    """The 60 recorded documents of the harness: every line the package
    writes (build error, or each check's verdict and data or its error)
    equals the line of the per-sample reference, and the lines are the
    recorded ones."""
    drawn = list(enumerate(draw(60)))
    produced = [record(index, *args) for index, args in drawn]
    changed = differing(differential_fingerprint(produced))
    assert not changed, changed
    with per_sample_only():
        assert [record(index, *args) for index, args in drawn] == produced
