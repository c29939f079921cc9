import pytest
# posstats forks a worker to read its inputs while it imports scipy, but only while
# scipy is still to import.  Importing it here makes every posstats that a test runs
# in this process take the in-process path, whichever test runs first; test_cli.py
# runs the pooled path in fresh interpreters.
import scipy.special

from stoplemma import data_path


@pytest.fixture(scope="session")
def data_dir():
    return data_path()


@pytest.fixture(scope="session")
def demo_lexicon_path():
    return data_path("demo_lexicon.tsv")


@pytest.fixture(scope="session")
def table5_path():
    return data_path("table5_stoplemmas.txt")


@pytest.fixture(scope="session")
def table3_paths():
    return sorted(data_path("table3_top10").glob("*.tsv"))
