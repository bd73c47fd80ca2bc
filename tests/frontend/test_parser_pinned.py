"""Pin what the parser outputs, not only that it terminates.

Each test hashes, with sha256, the outcome of :func:`parse` over a set
of inputs: ``repr(unit.declarations)`` (so every name, kind, access and
source location counts) or, for rejected input, ``str(ParseError)``
(message and location).  A change to either digest is a change to the
parser's observable behaviour and must be deliberate.
"""

import hashlib

from repro.frontend.errors import ParseError
from repro.frontend.parser import parse
from repro.workloads.corpus import gui_corpus, iostream_corpus, template_corpus

from tests.frontend.test_parser_robustness import REPRESENTATIVE_TU

#: sha256 of every prefix's outcome of ``REPRESENTATIVE_TU``.
PREFIXES_DIGEST = (
    "463f7fe25e74dfc3fadf3bd2b3ea9ab8a5cce512baef3813a19e6de57a963e50"
)
#: sha256 of the outcome of each generated corpus file.
CORPUS_DIGEST = (
    "52052a5ceb3e330e8a673b512ee2c006601776dc2162dac5c800827bb7df4b96"
)


def outcome(source, filename=None):
    try:
        unit = parse(source, filename=filename)
    except ParseError as exc:
        return str(exc)
    return repr(unit.declarations)


def digest(outcomes):
    hasher = hashlib.sha256()
    for text in outcomes:
        hasher.update(text.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def test_every_prefix_outcome_is_pinned():
    outcomes = (
        outcome(REPRESENTATIVE_TU[:end])
        for end in range(len(REPRESENTATIVE_TU) + 1)
    )
    assert digest(outcomes) == PREFIXES_DIGEST


def test_corpus_outcomes_are_pinned():
    files = (
        gui_corpus(layers=8, width=8, files=4, seed=3)
        + iostream_corpus(modules=2, files=2)
        + template_corpus(instantiations=6, files=2)
    )
    outcomes = (outcome(file.text, filename=file.name) for file in files)
    assert digest(outcomes) == CORPUS_DIGEST
