"""Detector tests against a brute-force oracle that rescans the history."""

import math
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainrec import records, samplers
from chainrec.cli import _read_marks_csv
from chainrec.records import RecordDetector
from chainrec.rng import make_stream
from oracles import chain_record_indices, dominates, log_transform

from conftest import (
    ELEVEN_POINT_CHAIN,
    ELEVEN_POINT_MARGINAL,
    ELEVEN_POINT_MARKS,
    ELEVEN_POINT_STRONG,
    ELEVEN_POINT_WEAK,
    FOUR_POINT_MARKS,
)


# ---------------------------------------------------------------------------
# oracle: O(n^2 d) rescan of every definition, written independently of the
# streaming detector (same tie policy: componentwise <= blocks weakness,
# strong/marginal records need strict coordinate drops)


def oracle_flags(marks):
    d = len(marks[0])
    n = len(marks)
    chain = [False] * n
    rec = None
    for j, x in enumerate(marks):
        if rec is None or (x != rec and all(a <= b for a, b in zip(x, rec))):
            chain[j] = True
            rec = x
    out = []
    for j, x in enumerate(marks):
        prior = marks[:j]
        weak = not any(all(a <= b for a, b in zip(p, x)) for p in prior)
        if prior:
            mins = [min(p[i] for p in prior) for i in range(d)]
            strong = all(x[i] < mins[i] for i in range(d))
            marginal = tuple(x[i] < mins[i] for i in range(d))
        else:
            weak = strong = True
            marginal = (True,) * d
        out.append((chain[j], weak, strong, marginal))
    return out


def brute_minimal_set(marks):
    pts = set(marks)
    return {m for m in pts if not any(dominates(o, m) for o in pts)}


Flags = namedtuple("Flags", "chain weak strong marginal")


def classify(marks):
    """The flags of each mark of a whole sequence, from one detector's ``extend``."""
    rows = RecordDetector(len(marks[0])).extend(marks).tolist()
    return [Flags(r[0], r[1], r[2], tuple(r[3:])) for r in rows]


def indices(flags, kind):
    """1-based indices of the marks whose flag ``kind`` is set."""
    return [i for i, f in enumerate(flags, 1) if getattr(f, kind)]


def assert_matches_oracle(marks):
    assert classify(marks) == oracle_flags(marks)


# ---------------------------------------------------------------------------
# the partial order


def test_dominates_componentwise():
    assert dominates((0.2, 0.3), (0.5, 0.9))


def test_dominates_is_irreflexive():
    x = (0.4, 0.4)
    assert not dominates(x, x)


def test_incomparable_pair():
    assert not dominates((0.2, 0.9), (0.5, 0.3))
    assert not dominates((0.5, 0.3), (0.2, 0.9))


def test_dominates_allows_single_tied_coordinate():
    assert dominates((0.2, 0.3), (0.2, 0.9))


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates((0.1, 0.2), (0.1, 0.2, 0.3))


def test_height():
    # a record's height is the product of its mark's coordinates
    gen = make_stream(2024, 2)
    trace = samplers.simulate_direct(gen, 3, 500)
    marks = make_stream(2024, 2).random((500, 3))  # the uniforms the scan draws
    chain = indices(classify(marks.tolist()), "chain")
    assert tuple(chain) == trace.record_times
    assert list(trace.heights) == pytest.approx([math.prod(marks[t - 1]) for t in chain], rel=1e-15)


def test_log_transform_values():
    assert log_transform([(1.0, 1.0)]) == [(0.0, 0.0)]
    (a, b), = log_transform([(math.exp(-1), math.exp(-2))])
    assert abs(a - 1.0) < 1e-12 and abs(b - 2.0) < 1e-12


def test_log_transform_rejects_zero():
    with pytest.raises(ValueError):
        log_transform([(0.0, 0.5)])


# ---------------------------------------------------------------------------
# fixture sequences


def test_four_point_sequence():
    flags = classify(FOUR_POINT_MARKS)
    assert indices(flags, "chain") == [1, 2, 4]
    assert indices(flags, "weak") == [1, 2, 3, 4]
    assert indices(flags, "strong") == [1, 2, 4]
    assert_matches_oracle(FOUR_POINT_MARKS)


def test_four_point_counts():
    det = RecordDetector(2)
    totals = sum(det.process(m).astype(int) for m in FOUR_POINT_MARKS)
    assert totals[:3].tolist() == [3, 4, 3]


def test_eleven_point_sequence():
    flags = classify(ELEVEN_POINT_MARKS)
    assert indices(flags, "chain") == ELEVEN_POINT_CHAIN
    assert indices(flags, "weak") == ELEVEN_POINT_WEAK
    assert indices(flags, "strong") == ELEVEN_POINT_STRONG
    assert [i for i, f in enumerate(flags, 1) if any(f.marginal)] == ELEVEN_POINT_MARGINAL
    assert_matches_oracle(ELEVEN_POINT_MARKS)


def test_single_mark_all_flags():
    (f,) = classify([(0.3, 0.8, 0.1)])
    assert f.chain and f.weak and f.strong and all(f.marginal)


def test_decreasing_chain_counts():
    marks = [(x, x) for x in (0.9, 0.7, 0.5, 0.3, 0.1)]
    det = RecordDetector(2)
    totals = sum(det.process(m).astype(int) for m in marks)
    assert totals[:3].tolist() == [5, 5, 5]


def test_increasing_sequence_single_record():
    marks = [(x, x) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
    det = RecordDetector(2)
    totals = sum(det.process(m).astype(int) for m in marks)
    assert totals[:3].tolist() == [1, 1, 1]


def test_classify_rejects_empty_and_mixed_dims(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2\n")
    with pytest.raises(ValueError, match="no marks after the header"):
        _read_marks_csv(str(empty))
    with pytest.raises(ValueError):
        RecordDetector(2).extend([(0.1, 0.2), (0.1, 0.2, 0.3)])
    # an array of the wrong width is scanned too, so the error names its first row
    det = RecordDetector(2)
    det.process((0.5, 0.5))
    with pytest.raises(ValueError, match="dimension mismatch at index 2: got 3, expected 2"):
        det.extend(np.full((4, 3), 0.25))
    assert det.index == 1 and det.pareto_front == ((0.5, 0.5),)


def test_ragged_input_names_the_first_bad_index():
    ragged = [(0.5, 0.5), (0.4, 0.6), (0.1, 0.2, 0.3), (0.2, 0.2)]
    message = "dimension mismatch at index 3: got 3, expected 2"
    with pytest.raises(ValueError, match=message):
        RecordDetector(2).extend(ragged)
    det = RecordDetector(2)
    det.process(ragged[0])
    with pytest.raises(ValueError, match=message):
        det.extend(ragged[1:])
    det.process(ragged[1])
    with pytest.raises(ValueError, match=message):
        det.process(ragged[2])
    # a rejected mark leaves the stream state as it was
    assert det.index == 2 and det.pareto_front == (ragged[0], ragged[1])
    det.process(ragged[3])
    assert det.index == 3


def test_a_scalar_mark_is_a_dimension_mismatch():
    # a scalar has no length: it is named as a bad mark, not a TypeError
    with pytest.raises(ValueError, match="dimension mismatch at index 1: got a scalar, expected 2"):
        RecordDetector(2).extend([0.5, 0.5])
    det = RecordDetector(2)
    det.process((0.5, 0.5))
    with pytest.raises(ValueError, match="dimension mismatch at index 3: got a scalar, expected 2"):
        det.extend([[0.4, 0.6], 0.3])
    with pytest.raises(ValueError, match="dimension mismatch at index 2: got a scalar, expected 2"):
        det.process(0.3)
    with pytest.raises(ValueError, match="dimension mismatch at index 1: got a scalar, expected 1"):
        RecordDetector(1).extend([0.5, 0.3])
    assert det.index == 1 and det.pareto_front == ((0.5, 0.5),)


@pytest.mark.parametrize("marks, got", [
    ([[[0.1], [0.2]]], "shape (2, 1)"),  # numpy reads it as a (1, 2, 1) block
    ([(0.5, 0.5), np.full((2, 1), 0.3)], "shape (2, 1)"),
    ([(0.5, 0.5), [[0.1, 0.2]]], "shape (1, 2)"),
    ([(0.1, (0.2, 0.3))], "a ragged sequence"),  # numpy rejects the whole input
    ([(0.5, 0.5), (0.1, (0.2, 0.3))], "a ragged sequence"),
], ids=["column", "column-second", "row-second", "ragged", "ragged-second"])
def test_a_mark_of_another_shape_is_a_dimension_mismatch(marks, got):
    det = RecordDetector(2)
    det.process((0.9, 0.9))
    k = 1 + len(marks)  # the last mark is the bad one
    with pytest.raises(ValueError, match=re.escape(
            f"dimension mismatch at index {k}: got {got}, expected 2")):
        det.extend(marks)
    assert det.index == 1 and det.pareto_front == ((0.9, 0.9),)


def test_a_mark_numpy_cannot_read_keeps_numpys_error():
    # every mark has shape (dim,), so the scan names none
    with pytest.raises(ValueError, match="could not convert string to float"):
        RecordDetector(2).extend([(0.5, 0.5), ("a", "b")])


def test_a_nan_coordinate_is_rejected_before_any_state_changes():
    # no comparison with NaN holds, so a NaN mark would be a weak record that
    # no later mark removes from the front
    det = RecordDetector(2)
    det.process((0.9, 0.9))
    with pytest.raises(ValueError, match=r"^NaN coordinate at index 3$"):
        det.extend([(0.5, 0.5), (0.4, math.nan), (math.nan, 0.1)])
    with pytest.raises(ValueError, match=r"^NaN coordinate at index 2$"):
        det.process((math.nan, math.nan))
    with pytest.raises(ValueError, match=r"^NaN coordinate at index 4$"):
        det.extend(np.array([[0.5, 0.5], [0.4, 0.6], [0.3, np.nan]]))
    assert det.index == 1 and det.pareto_front == ((0.9, 0.9),)
    assert det._mins.tolist() == [0.9, 0.9] and det._last_chain == (0.9, 0.9)
    # infinities are ordered: (0.5, inf) is beaten by nothing before it, and
    # (-inf, 0.5) beats every earlier mark
    assert det.extend([(0.5, math.inf), (-math.inf, 0.5)])[:, :3].tolist() == [
        [False, True, False], [True, True, True]]


@pytest.mark.parametrize("empty", [[], (), np.empty((0, 2)), np.empty((0, 5))])
def test_extend_of_no_marks_has_one_flag_column_per_coordinate(empty):
    assert RecordDetector(3).extend(empty).shape == (0, 6)


def test_extend_of_no_marks_changes_nothing():
    det = RecordDetector(3)
    assert det.extend([]).shape == (0, 6)
    assert det.index == 0 and det.pareto_front == ()
    assert det.process((0.5, 0.5, 0.5)).all()


def test_ties():
    # a duplicate of the last record is a record of no kind
    (_, dup) = classify([(0.5, 0.5), (0.5, 0.5)])
    assert not (dup.chain or dup.weak or dup.strong or any(dup.marginal))
    # one strict coordinate is enough for a chain record, not for a strong one
    (_, step) = classify([(0.5, 0.5), (0.5, 0.3)])
    assert step.chain and step.weak and not step.strong and step.marginal == (False, True)
    # a front point tied in one coordinate and lower in the other blocks weak
    flags = classify([(0.2, 0.8), (0.8, 0.2), (0.2, 0.9), (0.9, 0.2)])
    assert [f.weak for f in flags] == [True, True, False, False]


def test_counts_match_flag_totals():
    gen = make_stream(2024, 1)
    marks = [tuple(row) for row in gen.random((200, 3))]
    det = RecordDetector(3)
    totals = sum(det.process(m).astype(int) for m in marks).tolist()
    assert totals == RecordDetector(3).extend(marks).sum(axis=0).tolist()
    expected = [[c, w, s, *marginal] for c, w, s, marginal in oracle_flags(marks)]
    assert totals == [sum(column) for column in zip(*expected)]


# ---------------------------------------------------------------------------
# permutation sensitivity: the chain flag at the last index can flip under a
# permutation of the prefix while the weak/strong/marginal flags cannot


def test_permutation_flips_only_the_chain_flag():
    top, a, b, last = (0.9, 0.9), (0.8, 0.3), (0.3, 0.8), (0.25, 0.5)
    with_a_first = classify([top, a, b, last])[-1]
    with_b_first = classify([top, b, a, last])[-1]
    assert not with_a_first.chain and with_b_first.chain
    assert with_a_first.weak == with_b_first.weak
    assert with_a_first.strong == with_b_first.strong
    assert with_a_first.marginal == with_b_first.marginal


# ---------------------------------------------------------------------------
# invariants, property-style


coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def mark_lists(max_size=40, max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda d: st.lists(st.tuples(*[coords] * d), min_size=1, max_size=max_size)
    )


@given(mark_lists())
def test_inclusion_chain(marks):
    for f in classify(marks):
        assert not f.strong or f.chain
        assert not f.chain or f.weak
        assert not f.strong or all(f.marginal)


@given(mark_lists())
def test_front_equals_brute_force_minimal_set(marks):
    det = RecordDetector(len(marks[0]))
    for m in marks:
        det.process(m)
    assert set(det.pareto_front) == brute_minimal_set(marks)


@given(mark_lists())
def test_flags_match_oracle(marks):
    assert_matches_oracle(marks)


@given(mark_lists(max_size=20))
def test_marginal_flags_are_per_coordinate_records(marks):
    # coordinate i of the marginal tuple depends only on coordinate i
    flags = classify(marks)
    d = len(marks[0])
    for i in range(d):
        column = [(m[i],) for m in marks]
        column_flags = classify(column)
        assert [f.marginal[i] for f in flags] == [c.marginal[0] for c in column_flags]


@given(mark_lists(max_size=15), st.data())
def test_duplicate_of_earlier_mark_is_no_record(marks, data):
    i = data.draw(st.integers(min_value=0, max_value=len(marks) - 1))
    f = classify(marks + [marks[i]])[-1]
    assert not (f.chain or f.weak or f.strong or any(f.marginal))


@given(mark_lists(max_size=12, max_dim=3), st.data())
def test_prefix_permutation_preserves_nonchain_flags(marks, data):
    if len(marks) < 2:
        return
    prefix = data.draw(st.permutations(marks[:-1]))
    base = classify(marks)[-1]
    perm = classify(list(prefix) + [marks[-1]])[-1]
    assert base.weak == perm.weak
    assert base.strong == perm.strong
    assert base.marginal == perm.marginal


@pytest.mark.parametrize("budget", [1, 40])
@given(mark_lists(), st.data())
def test_any_split_into_calls_matches_one_call(budget, marks, data):
    # tiny block budgets put block boundaries between most marks
    whole = RecordDetector(len(marks[0]))
    whole.extend(marks)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(marks)), max_size=6)))
    det = RecordDetector(len(marks[0]))
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_BLOCK_BUDGET", budget)
        for lo, hi in zip([0, *cuts], [*cuts, len(marks)]):
            if data.draw(st.booleans()):
                got.extend(det.extend(marks[lo:hi]).tolist())
            else:
                got.extend(det.process(m).tolist() for m in marks[lo:hi])
    rows = [(r[0], r[1], r[2], tuple(r[3:])) for r in got]
    assert rows == classify(marks)
    assert rows == oracle_flags(marks)
    assert det.pareto_front == whole.pareto_front
    # the front holds each minimal point once, in order of first arrival
    assert det.pareto_front == tuple(sorted(brute_minimal_set(marks), key=marks.index))
    assert det._last_chain == whole._last_chain
    assert det._mins.tolist() == whole._mins.tolist()


def test_front_matches_brute_force_on_long_random_sequence():
    gen = make_stream(77, 3)
    marks = [tuple(row) for row in gen.random((500, 3))]
    det = RecordDetector(3)
    for m in marks:
        det.process(m)
    assert set(det.pareto_front) == brute_minimal_set(marks)
    front = det.pareto_front
    assert not any(
        dominates(a, b) for a in front for b in front if a is not b
    )


# ---------------------------------------------------------------------------
# chain count as the number of height layers (partition-block identity)


def test_chain_count_equals_distinct_layer_count():
    gen = make_stream(99, 5)
    marks = [tuple(row) for row in gen.random((300, 2))]
    rec_times = indices(classify(marks), "chain")
    rec_values = [marks[t - 1] for t in rec_times]
    # layer of mark j: one plus the number of records present by time j
    # whose lower section contains it
    layers = []
    for j, x in enumerate(marks, 1):
        k = sum(1 for t, r in zip(rec_times, rec_values) if t <= j and dominates(x, r))
        layers.append(k + 1)
    assert len(set(layers)) == len(rec_times)
    first_hit = {}
    for j, layer in enumerate(layers, 1):
        first_hit.setdefault(layer, j)
    assert sorted(first_hit.values()) == rec_times


# ---------------------------------------------------------------------------
# log-transform correspondence


def test_log_transform_preserves_chain_records():
    for marks in (FOUR_POINT_MARKS, ELEVEN_POINT_MARKS):
        lower = chain_record_indices(marks)
        upper = chain_record_indices(log_transform(marks), upper=True)
        assert lower == upper


def test_log_transform_preserves_chain_records_random():
    gen = make_stream(31, 8)
    marks = [tuple(row) for row in gen.random((400, 3))]
    assert chain_record_indices(marks) == chain_record_indices(
        log_transform(marks), upper=True
    )
