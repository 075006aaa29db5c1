import pytest

from lagdeform.corpus import CORPUS_NAMES, load_corpus_problem
from lagdeform.pipeline import run_pipeline


@pytest.fixture(scope="session")
def corpus_reports():
    """The shipped corpus through the full pipeline, run once per session."""
    return {
        name: run_pipeline(load_corpus_problem(name), mode="report")
        for name in CORPUS_NAMES
    }
