"""Every case of the differential corpus (``corpus.py``) gives the outputs
whose digest ``golden/corpus.sha256`` records: the same exit code, stdout,
stderr and written file, byte for byte."""

import corpus


def test_corpus_outputs_are_unchanged(tmp_path, monkeypatch):
    # relative paths, so that messages and generate's "written" line name
    # the same files in every directory
    monkeypatch.chdir(tmp_path)
    corpus.write_inputs()
    recorded = corpus.recorded()
    assert list(recorded) == corpus.CASES
    changed = [case for case in corpus.CASES if corpus.run_case(case) != recorded[case]]
    assert changed == []


def test_a_byte_order_mark_changes_no_output():
    recorded = corpus.recorded()
    marked = [case for case in corpus.CASES if "bom." in case]
    assert len(marked) == 5
    for case in marked:
        unmarked = case.replace("bom.csv", "base.csv").replace("bom.json", "fixed.json")
        assert recorded[case] == recorded[unmarked], case
