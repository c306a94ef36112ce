"""Records are immutable named tuples; the validated ones check every
construction path: positional, keyword, _make and _replace.  The label of
a representation (parity, l, r, q, dim) is no record: the functions that
take it check it, along the same four paths."""

import functools

import pytest

from qrwp import WeightedShift, Weights, pullback_check, rep_generator, rep_report
from qrwp.cli import RunConfig
from qrwp.fockrep import WeightForm, relation_residuals
from qrwp.qwrp import RelationSide

RUN = {"q": 0.5, "dim": 256, "tolerance": 1e-10, "fmt": "text"}

# name: (record, valid fields, fields that break it, message)
INVALID = {
    "weights l": (Weights, {"k": 1, "l": 2}, {"l": 0}, "weight l must be a positive integer"),
    "weights coprime": (Weights, {"k": 1, "l": 2}, {"k": 4}, r"weights \(4, 2\) are not coprime"),
    "run q": (RunConfig, RUN, {"q": 0.0}, r"q must lie in \(0, 1\)"),
    "run N": (RunConfig, RUN, {"dim": 3}, "N must be at least 4"),
    "run tolerance": (RunConfig, RUN, {"tolerance": float("inf")}, "tolerance must be finite and positive"),
}

# name: (fields that break a valid call, message, the functions that check it)
LABELS = {
    "label parity": ({"parity": "even"}, "the even family requires odd l",
                     (rep_report, relation_residuals, pullback_check)),
    "label l": ({"l": 0}, "l must be a positive integer", (rep_report, relation_residuals, pullback_check)),
    "label r": ({"r": 3}, r"label r must lie in 1\.\.2", (rep_generator,)),
    "label q": ({"q": 1.0}, r"q must lie in \(0, 1\)", (rep_report, relation_residuals, pullback_check)),
    "label dim": ({"dim": 0}, "dim must be positive", (rep_report,)),
}
# a valid call of each checking function, its fields in signature order
VALID_CALLS = {
    rep_report: {"parity": "odd", "l": 2, "q": 0.5, "dim": 16},
    relation_residuals: {"parity": "odd", "l": 2, "q": 0.5, "dim": 16},
    pullback_check: {"parity": "odd", "l": 2, "q": 0.5},
    rep_generator: {"parity": "odd", "l": 2, "r": 1, "q": 0.5, "dim": 16, "gen": "c"},
}

PATHS = {
    "positional": lambda cls, fields, bad: cls(*({**fields, **bad}[f] for f in cls._fields)),
    "keyword": lambda cls, fields, bad: cls(**{**fields, **bad}),
    "_make": lambda cls, fields, bad: cls._make({**fields, **bad}[f] for f in cls._fields),
    "_replace": lambda cls, fields, bad: cls(**fields)._replace(**bad),
}
# A function has no _make or _replace: there it reads its arguments from an
# iterator, and the bad fields override a call bound to the valid ones.
CALLS = {
    "positional": lambda fn, fields, bad: fn(*{**fields, **bad}.values()),
    "keyword": lambda fn, fields, bad: fn(**{**fields, **bad}),
    "_make": lambda fn, fields, bad: fn(*iter({**fields, **bad}.values())),
    "_replace": lambda fn, fields, bad: functools.partial(fn, **fields)(**bad),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", [*INVALID, *LABELS])
def test_every_construction_path_validates(case, path):
    if case in LABELS:
        bad, message, functions = LABELS[case]
        for fn in functions:
            CALLS[path](fn, VALID_CALLS[fn], {})
            with pytest.raises(ValueError, match=f"^{message}$"):
                CALLS[path](fn, VALID_CALLS[fn], bad)
        return
    cls, fields, bad, message = INVALID[case]
    build = PATHS[path]
    good = build(cls, fields, {})
    assert type(good) is cls and good == tuple(fields[f] for f in cls._fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(cls, fields, bad)


@pytest.mark.parametrize("record", [Weights(1, 2), WeightForm(0, 2, ()), RunConfig(**RUN),
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
