"""Records are immutable named tuples; the validated ones check every
construction path: positional, keyword, _make and _replace."""

import pytest

from qrwp import RepInstance, WeightedShift, Weights
from qrwp.cli import RunConfig
from qrwp.qwrp import RelationSide

ODD_LABEL = {"parity": "odd", "l": 2, "r": 1, "q": 0.5, "dim": 16}
RUN = {"q": 0.5, "dim": 256, "tolerance": 1e-10, "fmt": "text"}

# name: (record, valid fields, fields that break it, message)
INVALID = {
    "weights l": (Weights, {"k": 1, "l": 2}, {"l": 0}, "weight l must be a positive integer"),
    "weights coprime": (Weights, {"k": 1, "l": 2}, {"k": 4}, r"weights \(4, 2\) are not coprime"),
    "label parity": (RepInstance, ODD_LABEL, {"parity": "even"}, "the even family requires odd l"),
    "label l": (RepInstance, ODD_LABEL, {"l": 0}, "l must be a positive integer"),
    "label r": (RepInstance, ODD_LABEL, {"r": 3}, r"label r must lie in 1\.\.2"),
    "label q": (RepInstance, ODD_LABEL, {"q": 1.0}, r"q must lie in \(0, 1\)"),
    "label dim": (RepInstance, ODD_LABEL, {"dim": 0}, "dim must be positive"),
    "run q": (RunConfig, RUN, {"q": 0.0}, r"q must lie in \(0, 1\)"),
    "run N": (RunConfig, RUN, {"dim": 3}, "N must be at least 4"),
    "run tolerance": (RunConfig, RUN, {"tolerance": float("inf")}, "tolerance must be finite and positive"),
}

PATHS = {
    "positional": lambda cls, fields, bad: cls(*({**fields, **bad}[f] for f in cls._fields)),
    "keyword": lambda cls, fields, bad: cls(**{**fields, **bad}),
    "_make": lambda cls, fields, bad: cls._make({**fields, **bad}[f] for f in cls._fields),
    "_replace": lambda cls, fields, bad: cls(**fields)._replace(**bad),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", INVALID)
def test_every_construction_path_validates(case, path):
    cls, fields, bad, message = INVALID[case]
    build = PATHS[path]
    good = build(cls, fields, {})
    assert type(good) is cls and good == tuple(fields[f] for f in cls._fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(cls, fields, bad)


@pytest.mark.parametrize("record", [Weights(1, 2), RepInstance(**ODD_LABEL), RunConfig(**RUN),
                                    RelationSide(0, ())])
def test_records_reject_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1      # no instance dict


def test_records_are_named_tuples():
    w = Weights(1, 2)
    assert repr(w) == "Weights(k=1, l=2)"
    assert w == (1, 2) and tuple(w) == (1, 2)
    k, l = w
    assert (k, l) == (w.k, w.l)
    assert w._replace(l=3) == Weights(1, 3) and w == Weights(1, 2)


def test_weighted_shift_is_a_value():
    a, b = WeightedShift(1, (1.0, 1.0, 0.0)), WeightedShift(1, (1.0, 1.0, 0.0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != a._replace(offset=0)
    with pytest.raises(AttributeError):
        a.weights = (0.0, 0.0, 0.0)
