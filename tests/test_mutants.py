"""The mutation table of tools/mutants.py still matches the source.

Running the mutants is opt-in (``python tools/mutants.py``); this checks
only that each row's old text occurs exactly once in its file, so a row
cannot silently stop applying."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_old_text_occurs_exactly_once():
    found = {mutant.name: mutants.occurrences(mutant) for mutant in mutants.MUTANTS}
    assert found == dict.fromkeys(found, 1)
