import mutants


def test_every_mutant_snippet_occurs_once():
    # A refactor that moves a listed snippet must update tests/mutants.py.
    assert mutants.check_snippets(mutants.MUTANTS) == []


def test_every_mutant_has_a_known_status_and_tests():
    for m in mutants.MUTANTS:
        assert m.status in ("kill", "equivalent", "survivor"), m.name
        assert m.tests and m.reason, m.name
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
