"""The vectorised session metrics equal a per-session loop over their oracles.

``session_auc`` / ``session_auc_at_k`` / ``session_ndcg`` rank every session
in one ``lexsort`` and reduce with ``np.bincount``; ``binary_auc`` and ``dcg``
stay as the per-group definitions.  The loops below are the implementations
the vectorised forms replaced, kept here as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import binary_auc, dcg, session_auc, session_auc_at_k, session_ndcg

settings.register_profile("ci", deadline=None, max_examples=30)
settings.load_profile("ci")


def _rows_per_session(sessions):
    return [np.flatnonzero(sessions == session) for session in np.unique(sessions)]


def _loop_auc(scores, labels, sessions, k=None):
    values = []
    for rows in _rows_per_session(sessions):
        if k is not None:
            rows = rows[np.argsort(-scores[rows], kind="stable")[:k]]
        auc = binary_auc(scores[rows], labels[rows])
        if auc is not None:
            values.append(auc)
    if not values:
        raise ValueError("undefined on every session")
    return float(np.mean(values))


def _loop_ndcg(scores, labels, sessions, k=None):
    values = []
    for rows in _rows_per_session(sessions):
        ideal = dcg(np.sort(labels[rows])[::-1], k)
        if ideal == 0.0:
            continue
        values.append(dcg(labels[rows][np.argsort(-scores[rows], kind="stable")], k) / ideal)
    if not values:
        raise ValueError("undefined on every session")
    return float(np.mean(values))


@st.composite
def _impressions(draw):
    """Interleaved session ids (gaps, negatives), scores on a coarse grid so
    ties are the rule, labels that leave whole sessions single-class, and
    sessions of one row."""
    rows = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sessions = rng.integers(0, draw(st.integers(1, 20)), size=rows) * 5 - 7
    levels = draw(st.sampled_from([1, 2, 4, 1000]))
    scores = rng.integers(0, levels, size=rows) / levels
    if draw(st.booleans()):
        scores = scores.astype(np.float32)
    labels = (rng.random(rows) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))).astype(np.float32)
    return scores, labels, sessions


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


def _assert_same(actual, expected):
    """Both raise, or both return the same value to 1e-12."""
    if expected is ValueError:
        assert actual is ValueError
    else:
        assert actual == pytest.approx(expected, abs=1e-12)


class TestVectorisedEqualsLoop:
    @given(_impressions())
    def test_session_auc(self, data):
        expected = _outcome(_loop_auc, *data)
        actual = _outcome(session_auc, *data)
        _assert_same(actual, expected)

    @given(_impressions(), st.sampled_from([2, 3, 10]))
    def test_session_auc_at_k(self, data, k):
        expected = _outcome(_loop_auc, *data, k=k)
        actual = _outcome(session_auc_at_k, *data, k=k)
        _assert_same(actual, expected)

    @given(_impressions(), st.sampled_from([None, 10, 1]))
    def test_session_ndcg(self, data, k):
        expected = _outcome(_loop_ndcg, *data, k=k)
        actual = _outcome(session_ndcg, *data, k=k)
        _assert_same(actual, expected)

    def test_graded_labels_rank_the_ideal_by_label(self):
        scores = np.array([0.1, 0.9, 0.5, 0.3, 0.8])
        labels = np.array([3.0, 0.0, 1.0, 2.0, 0.0])
        sessions = np.array([4, 4, 4, 9, 9])
        for k in (None, 2):
            assert session_ndcg(scores, labels, sessions, k=k) == pytest.approx(
                _loop_ndcg(scores, labels, sessions, k=k), abs=1e-12
            )

    def test_messages_and_argument_checks_are_unchanged(self):
        one_class = (np.array([0.5, 0.6]), np.array([1.0, 1.0]), np.array([0, 0]))
        with pytest.raises(ValueError, match="both a positive and a negative"):
            session_auc(*one_class)
        with pytest.raises(ValueError, match="within its top-3"):
            session_auc_at_k(*one_class, k=3)
        with pytest.raises(ValueError, match="k must be >= 2"):
            session_auc_at_k(*one_class, k=1)
        with pytest.raises(ValueError, match="no session contains a positive item"):
            session_ndcg(np.array([0.5, 0.6]), np.zeros(2), np.array([0, 1]))
        empty = np.empty(0)
        with pytest.raises(ValueError, match="both a positive and a negative"):
            session_auc(empty, empty, empty)
        with pytest.raises(ValueError, match="no session contains a positive item"):
            session_ndcg(empty, empty, empty)
