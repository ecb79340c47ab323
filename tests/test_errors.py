import pickle

import pytest

import umlr.errors as errors
from umlr.errors import UmlrError, UnstableBootstrapError


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


ERRORS = [UmlrError, *subclasses(UmlrError)]


def test_every_error_class_is_listed():
    defined = {v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, UmlrError)}
    assert defined == set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_class_and_message(cls):
    exc = UnstableBootstrapError(0.5) if cls is UnstableBootstrapError else cls("bad input")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.code == exc.code


def test_unstable_bootstrap_keeps_its_rate_and_message():
    for exc in (UnstableBootstrapError(0.5), UnstableBootstrapError(0.25, "custom")):
        back = pickle.loads(pickle.dumps(exc))
        assert (back.failure_rate, str(back)) == (exc.failure_rate, str(exc))
    assert str(UnstableBootstrapError(0.5)) == "estimator failed on 50.0% of bootstrap resamples"
