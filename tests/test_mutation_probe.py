"""Every entry of the mutation probe's ledger (tests/probe_ledger.txt) names a
mutant the probe still makes, so a ledger line cannot outlive its code, and
no two sites of a module share a ledger key."""

import pytest

import mutation_probe as P

ENTRIES = sorted(P.ledger())


def entry_id(module, text, label):
    """module-swap, plus the site text after the ledger's first entry of that
    module and swap, so an appended ledger line renames no test."""
    first = next(t for m, t, swap in P.ledger() if (m, swap) == (module, label))
    return f"{module}-{label}" + ("" if text == first else f"-{text}")


def test_ledger_is_not_empty():
    assert ENTRIES


@pytest.mark.parametrize("module, text, label", ENTRIES,
                         ids=[entry_id(*entry) for entry in ENTRIES])
def test_ledger_entry_matches_a_site(module, text, label):
    source = (P.ROOT / "src" / "polsim" / f"{module}.py").read_text()
    assert (text, label) in P.site_keys(source)


@pytest.mark.parametrize("module", sorted(p.stem for p in (P.ROOT / "src" / "polsim").glob("*.py")))
def test_site_keys_are_distinct(module):
    keys = P.site_keys((P.ROOT / "src" / "polsim" / f"{module}.py").read_text())
    assert len(set(keys)) == len(keys)
