"""The braid scan's shared middle product, and the leg actions that hand
out R's own rows.

The two sides of the braid equation share M = R^23 R^12: the left side is
R^12 M and the right side M R^23. The scan forms each row of M the first
time it reads it and keeps it while it lives; the defects whose sides
share no middle product push each row through both three-factor sides.
Leg actions use R's cleared rows without copying them where no index
moves, so no defect may mutate the operators it reads."""

import copy
import random

import pytest

from test_constructors import monic_quotient
from ybx import kernel, tensor
from ybx.constructors import colored_operator, dn_inverse, dn_operator
from ybx.scalars import var
from ybx.tensor import (DimensionMismatch, Operator2, braid_defect,
                        colored_defect, qybe_defect, roundtrip_defect, twist,
                        yb_commutator)


def dense_algebra(dim):
    """k[x]/(f) with seeded nonzero coefficients: a dense table."""
    rng = random.Random(36)
    return monic_quotient([rng.choice((-2, -1, 1, 2)) for _ in range(dim)])


@pytest.fixture
def calls(monkeypatch):
    """(whether the call reads a memo of M, x) for every call of the int
    lane's apply; building an algebra calls it too, so a test clears the
    list before the defect it counts. Every factor of a product is a list
    of row lists, and a memo is the one list whose rows are the items of
    rows of M, or None before they are formed."""
    seen = []

    def apply(actions, x):
        seen.append((any(type(row) is not list for f in actions for row in f),
                     x))
        return kernel._apply(actions, x)

    monkeypatch.setattr(kernel, "_INT_KERNEL", (apply, kernel._minus))
    return seen


def scanned(defect, size):
    """How many rows the scan of a defect read: up to its witness's."""
    first = defect.first_nonzero()
    return size if first is None else first[0] + 1


def formed(calls):
    """The rows of M formed, by the applies that read no memo."""
    return [x for memo, x in calls if not memo]


class TestMemo:

    def test_a_pass_forms_each_middle_row_once(self, calls):
        R = dn_operator(dense_algebra(4), 2, 3, 2)
        assert R.int_form is not None
        calls.clear()
        defect = braid_defect(R)
        assert defect.is_zero()
        assert sorted(formed(calls)) == list(range(4 ** 3))
        # and two applies on the memo per row scanned
        assert len(calls) == 3 * 4 ** 3

    def test_a_fail_forms_only_what_its_witness_row_reads(self, calls):
        R = dn_operator(dense_algebra(4), 2, 3, 5)
        calls.clear()
        defect = braid_defect(R)
        assert defect.first_nonzero()[0] == 0
        # row 0 of R^12's action is row 0 of R
        _, cleared = R.int_form
        row0 = tensor._leg_action(cleared, 4, 12)[0]
        xs = formed(calls)
        assert len(xs) == len(set(xs)) <= 1 + len(row0)
        assert set(xs) <= {0, *(x for x, _ in row0)}
        assert len(calls) == len(xs) + 2

    def test_dense_starts_a_fresh_memo(self, calls):
        defect = braid_defect(dn_operator(dense_algebra(3), 2, -1, 3))
        calls.clear()
        assert not defect.dense().is_zero()
        assert sorted(formed(calls)) == list(range(3 ** 3))

    @pytest.mark.parametrize("which", ["qybe", "colored", "roundtrip"])
    def test_other_defects_form_none(self, calls, which):
        A = dense_algebra(4)
        if which == "qybe":
            ops, size = [dn_operator(A, 2, 3, 2)], 4 ** 3
        elif which == "colored":
            ops, size = [colored_operator(A, 2, 3, u, v)
                         for u, v in ((1, 2), (1, 3), (2, 3))], 4 ** 3
        else:
            ops, size = [dn_operator(A, 2, 3, 2), dn_inverse(A, 2, 3, 2)], 16
        calls.clear()
        defect = {"qybe": qybe_defect, "colored": colored_defect,
                  "roundtrip": roundtrip_defect}[which](*ops)
        assert not any(memo for memo, _ in calls)
        assert len(calls) == 2 * scanned(defect, size)


def test_defects_leave_their_operators_alone():
    A = dense_algebra(3)
    born = dn_operator(A, 2, 3, 2)
    inverse = dn_inverse(A, 2, 3, 2)
    assert born._rows is None and born._form is not None
    a = var("a")
    rows_only = Operator2(3, [[e + a if i == j else e
                               for j, e in enumerate(row)]
                              for i, row in enumerate(born.rows)])
    form, rows = copy.deepcopy(born.int_form), copy.deepcopy(rows_only.rows)
    for R, inv in ((born, inverse), (rows_only, rows_only),
                   (Operator2(3, born.rows), inverse)):
        for defect in (braid_defect(R), qybe_defect(R),
                       colored_defect(R, born, rows_only),
                       roundtrip_defect(R, inv)):
            defect.first_nonzero()
            defect.dense()
    assert born.int_form == form
    assert rows_only.rows == rows


@pytest.mark.parametrize("defect", [colored_defect, yb_commutator])
def test_a_dim_mismatch_names_the_operands(defect):
    R2, R3 = twist(2), twist(3)
    with pytest.raises(DimensionMismatch,
                       match="^the defect's operands need equal dims, "
                             "got 2, 2, 3$"):
        defect(R2, R2, R3)
