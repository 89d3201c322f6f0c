import pickle

import pytest

from esln import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# constructor arguments of the errors that take more than a message
_ARGS = {errors.ValidationError: ("a", "b")}


@pytest.mark.parametrize("cls", list(_subclasses(errors.EslnError)), ids=lambda cls: cls.__name__)
def test_every_error_pickles(cls):
    # an error raised in a worker process crosses back to the caller as itself,
    # so it keeps its exit code
    exc = cls(*_ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "path", None) == getattr(exc, "path", None)
