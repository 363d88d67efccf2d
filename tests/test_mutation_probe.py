"""Every entry of the mutation probe's ledger (tests/probe_ledger.txt) names a
mutant the probe still makes, so a ledger line cannot outlive its code."""

import pytest

import mutation_probe as P

ENTRIES = sorted(P.ledger())


def test_ledger_is_not_empty():
    assert ENTRIES


@pytest.mark.parametrize("module, text, label", ENTRIES,
                         ids=[f"{module}-{label}" for module, _, label in ENTRIES])
def test_ledger_entry_matches_a_site(module, text, label):
    source = (P.ROOT / "src" / "polsim" / f"{module}.py").read_text()
    assert (text, label) in P.site_keys(source)
