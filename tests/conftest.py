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
def compile_calls(monkeypatch):
    """The calls the test makes of ``expressions._compile`` (row code), of
    ``expressions._emit`` (the records of a tree walk, which the row code is
    written from and column calls replay) and of ``exec`` from
    ``expressions``, by name, in order."""
    calls = []
    for name in ("_compile", "_emit"):
        real = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    monkeypatch.setattr(ex, "exec", lambda *a: calls.append("exec") or exec(*a), raising=False)
    return calls
