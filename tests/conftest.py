import pytest

from lagdeform import expressions as ex
from lagdeform.corpus import CORPUS_NAMES, load_corpus_problem
from lagdeform.pipeline import run_pipeline


@pytest.fixture(scope="session")
def corpus_reports():
    """The shipped corpus through the full pipeline, run once per session."""
    return {
        name: run_pipeline(load_corpus_problem(name), mode="report")
        for name in CORPUS_NAMES
    }


@pytest.fixture
def compile_flags(monkeypatch):
    """The ``columns`` flag of each ``expressions._compile`` call the test
    makes, in order."""
    flags = []
    real = ex._compile

    def counted(roots, layout, constants, columns=False):
        flags.append(columns)
        return real(roots, layout, constants, columns)

    monkeypatch.setattr(ex, "_compile", counted)
    return flags
