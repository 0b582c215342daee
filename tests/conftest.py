import pytest

from sharpcount import engine


@pytest.fixture
def max_tries(monkeypatch):
    """Set `engine.MAX_TRIES`, the walk's boost-count ceiling and the search's
    node budget, for one test: `max_tries(1)` sends every query that needs a
    branch to the walk with one try."""

    def set_ceiling(tries: int) -> None:
        monkeypatch.setattr(engine, "MAX_TRIES", tries)

    return set_ceiling
