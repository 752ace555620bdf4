"""Reports do not depend on which call builds the numpy tables of
``sgchrom.lists``: each check runs a fresh interpreter whose first
sgchrom call is the one under test and compares it with this process."""

import json

import pytest

from sgchrom import lists

from conftest import run_fresh


def first_call(expr):
    """The JSON value of ``expr`` evaluated as the first sgchrom call of a
    fresh interpreter, before which numpy is not loaded."""
    code = (
        "import json, sys\n"
        "from sgchrom import lists\n"
        "assert 'numpy' not in sys.modules\n"
        f"print(json.dumps({expr}))\n"
    )
    return json.loads(run_fresh(code))


def report_body(doc):
    return {key: val for key, val in doc.items() if key != "elapsed_s"}


@pytest.mark.parametrize("lemma_id", lists.LEMMA_IDS)
def test_lemma_report_as_first_call(lemma_id):
    fresh = first_call(f"lists.verify_list_lemma({lemma_id!r}).to_json()")
    here = json.loads(json.dumps(lists.verify_list_lemma(lemma_id).to_json()))
    assert report_body(fresh) == report_body(here)


@pytest.mark.parametrize("bipartite, family", [(True, 2), (False, None)], ids=["family-2", "no-family"])
def test_classification_as_first_call(bipartite, family):
    # Three equal lists of size 6 reach the BIPARTITE_NEG lookup: family
    # (2) when the negative pairs inside the list form a bipartite graph.
    mask = next(m for m in lists.MASKS_BY_SIZE[6].tolist() if bool(lists.BIPARTITE_NEG[m]) == bipartite)
    assert lists.classify_neg_tri_exception(mask, mask, mask) == family
    assert first_call(f"lists.classify_neg_tri_exception({mask}, {mask}, {mask})") == family
