"""The mutant list stays in step with the code: every snippet occurs exactly once.

Running the mutants takes a minute (``python tests/mutants.py``); finding
their snippets takes none, so an edit to a listed snippet fails here at once.
"""

from __future__ import annotations

import pytest

import mutants


@pytest.mark.parametrize("index", range(len(mutants.MUTANTS)))
def test_snippet_occurs_once(index):
    module, snippet, replacement, _ = mutants.MUTANTS[index]
    mutants.mutated_source(module, snippet, replacement)  # LookupError unless once
