"""Tests for replica-copy voting and copy planning."""

import pickle
from collections import Counter as _TallyCounter
from typing import Any, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import VotingError
from repro.mpi import SimMPI, Status
from repro.mpi.datatypes import digest_bytes, message_wire_size, payload_digest, payload_nbytes
from repro.mpi.matching import Envelope
from repro.redundancy import ALL_TO_ALL, MSG_PLUS_HASH, RecvSet, vote
from repro.redundancy import voting
from repro.redundancy.interpose import HASH_TAG_OFFSET
from repro.redundancy.voting import plan_copies, tally
from repro.simkit import Environment

#: The receive's tag; a digest copy travels at ``TAG + HASH_TAG_OFFSET``.
TAG = 5


def full(sender, payload):
    return Envelope(sender, 0, TAG, payload, message_wire_size(payload))


def hash_copy(sender, payload):
    digest = payload_digest(payload)
    return Envelope(sender, 0, TAG + HASH_TAG_OFFSET, digest, message_wire_size(digest))


class TestVote:
    def test_single_copy(self):
        copies = [full(0, "data")]
        assert vote(copies, TAG) is copies[0]
        result = tally(copies, TAG)
        assert result.winner.payload == "data"
        assert result.unanimous
        assert result.corrupt_senders == ()

    def test_unanimous_pair(self):
        counters = _TallyCounter()
        copies = [full(0, 42), full(3, 42)]
        assert vote(copies, TAG, counters) is copies[0]
        assert tally(copies, TAG).unanimous and not counters

    def test_majority_corrects_corrupt_copy(self):
        copies = [full(0, "good"), full(1, "good"), full(2, "BAD")]
        counters = _TallyCounter()
        assert vote(copies, TAG, counters).payload == "good"
        assert counters == {"votes_not_unanimous": 1, "corrupt_copies_voted_out": 1}
        result = tally(copies, TAG)
        assert result.winner.payload == "good"
        assert not result.unanimous
        assert result.corrupt_senders == (2,)

    def test_two_way_disagreement_undecidable(self):
        with pytest.raises(VotingError):
            vote([full(0, "a"), full(1, "b")], TAG)

    def test_no_copies(self):
        with pytest.raises(VotingError):
            vote([], TAG)

    def test_hash_copies_count_toward_majority(self):
        copies = [full(0, "x"), hash_copy(1, "x"), hash_copy(2, "x")]
        counters = _TallyCounter()
        assert vote(copies, TAG, counters) is copies[0]
        assert tally(copies, TAG).unanimous and not counters

    def test_hash_majority_without_payload_carrier(self):
        # Corrupt payload carrier + r=2: detectable, not correctable.
        copies = [full(0, "CORRUPT"), hash_copy(1, "good")]
        with pytest.raises(VotingError):
            vote(copies, TAG)

    def test_hash_majority_with_three_copies_corrects(self):
        # Carrier corrupt but a second full copy carries the majority value.
        copies = [full(0, "CORRUPT"), full(1, "good"), hash_copy(2, "good")]
        assert vote(copies, TAG) is copies[1]
        result = tally(copies, TAG)
        assert result.winner.payload == "good"
        assert result.corrupt_senders == (0,)

    @given(st.integers(min_value=1, max_value=7))
    def test_identical_copies_always_unanimous(self, count):
        copies = [full(i, b"same") for i in range(count)]
        assert vote(copies, TAG) is copies[0]
        result = tally(copies, TAG)
        assert result.unanimous and result.winner.payload == b"same"

    def test_three_way_tie_rejected(self):
        with pytest.raises(VotingError):
            vote([full(0, "a"), full(1, "b"), full(2, "c")], TAG)


class _EagerCopy(NamedTuple):
    """A replica copy whose digest was computed on arrival."""

    sender_physical: int
    digest: int
    payload: Any = None
    has_payload: bool = False


def eager_vote(copies):
    """Reference tally: every copy's digest compared, computed up front."""
    if not copies:
        raise VotingError("no replica copies to vote on")
    tally = _TallyCounter(copy.digest for copy in copies)
    majority_digest, majority_count = tally.most_common(1)[0]
    if len(tally) > 1 and majority_count <= len(copies) - majority_count:
        raise VotingError(
            f"replica copies disagree with no majority "
            f"({len(tally)} distinct digests over {len(copies)} copies)"
        )
    corrupt = tuple(
        copy.sender_physical for copy in copies if copy.digest != majority_digest
    )
    winner: Optional[_EagerCopy] = None
    for copy in copies:
        if copy.digest == majority_digest and copy.has_payload:
            winner = copy
            break
    if winner is None:
        raise VotingError(
            "majority digest carried no full payload (corrupted message "
            "copy with r=2 in Msg-PlusHash mode is detectable but not "
            "correctable)"
        )
    return winner.payload, len(tally) == 1, corrupt


def payload_families():
    """Groups of payloads that look alike to a value comparison.

    Copies are drawn from one group at a time, so shared objects, equal
    but distinct arrays and near-misses meet in the same vote.
    """
    base = np.array([1.5, -2.0, 3.25, 0.0])
    strided = np.zeros(8)
    strided[::2] = base
    corrupt = base.copy()
    corrupt[1] = 99.0
    zero = np.array([0.0, 1.0])
    nan = np.array([np.nan, 1.0])
    other_nan = nan.copy()
    other_nan.view(np.uint64)[0] ^= 1
    arrays = [
        base,
        base.copy(),  # equal but distinct
        strided[::2],  # non-contiguous view, same values
        base.view(np.int64),  # same bytes, other dtype
        base.reshape(2, 2),  # same bytes, other shape
        corrupt,
    ]
    zeros = [zero, zero.copy(), np.array([-0.0, 1.0])]
    nans = [nan, nan.copy(), other_nan]  # equal bits, then other bits
    same_bytes = [base, base.view(np.int64), base.reshape(2, 2)]
    scalars = ["x", b"x", 0.0, -0.0, float("nan"), 7, (1, "a"), None, np.array(1.5)]
    # Scalars compared by the bytes they digest: a float and an equal
    # np.float64, signed zeros, and distinct NaN objects.
    floats = [
        1.5,
        np.float64(1.5),
        0.0,
        -0.0,
        np.float64(-0.0),
        float("nan"),
        float("nan"),
        np.float64("nan"),
    ]
    return [
        arrays, same_bytes, zeros, nans, scalars, floats,
        arrays + zeros + nans + scalars + floats,
    ]


class TestVoteMatchesEagerTally:
    @settings(max_examples=300)
    @given(st.data())
    def test_same_outcome_as_eager_digest_tally(self, data):
        families = payload_families()
        family = families[data.draw(st.integers(0, len(families) - 1))]
        drawn = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["full", "full", "hash"]),
                    st.integers(0, len(family) - 1),
                ),
                min_size=1,
                max_size=5,
            )
        )
        lazy, eager = [], []
        for sender, (kind, index) in enumerate(drawn):
            payload = family[index]
            if kind == "full":
                lazy.append(full(sender, payload))
                eager.append(_EagerCopy(sender, payload_digest(payload), payload, True))
            else:
                lazy.append(hash_copy(sender, payload))
                eager.append(_EagerCopy(sender, payload_digest(payload)))
        try:
            expected = eager_vote(eager)
        except VotingError:
            with pytest.raises(VotingError):
                vote(lazy, TAG)
            return
        assert vote(lazy, TAG).payload is expected[0]
        result = tally(lazy, TAG)
        assert result.winner.payload is expected[0]
        assert result.unanimous == expected[1]
        assert result.corrupt_senders == expected[2]

    def test_full_copy_carries_no_digest(self, monkeypatch):
        """Agreeing full copies are voted without hashing a payload."""
        hashed = []
        monkeypatch.setattr(voting, "payload_digest", hashed.append)
        payload = np.arange(4.0)
        copies = [full(0, payload), full(1, payload.copy())]
        assert vote(copies, TAG) is copies[0]
        assert hashed == []


#: Scalars whose values collide across types and signs: ``True``, ``1``
#: and ``1.0`` digest differently, as do ``0.0`` and ``-0.0``.
_LOOKALIKES = [
    True, 1, 1.0, np.float64(1.0), False, 0, 0.0, -0.0, np.float64(-0.0),
    float("nan"), -float("nan"), np.float64("nan"), float("inf"), -float("inf"),
    b"1", "1", "", b"", None,
]

_SCALARS = st.one_of(
    st.sampled_from(_LOOKALIKES),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.binary(max_size=4),
    st.text(max_size=4),
)


@st.composite
def scalar_pairs(draw):
    first = draw(_SCALARS)
    # An equal value in a distinct object, or an unrelated scalar.
    other = draw(st.one_of(st.just(pickle.loads(pickle.dumps(first))), _SCALARS))
    return first, other


#: A dtype of the same item size for each dtype ``array_pairs`` draws.
_RETYPE = {
    "float64": "int64", "float32": "int32", "int32": "float32",
    "int16": "uint16", "uint8": "int8", "bool": "uint8", "complex128": "V16",
}


@st.composite
def array_pairs(draw):
    dtype = draw(st.sampled_from(sorted(_RETYPE)))
    first = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4)))
    how = draw(st.sampled_from(["copy", "strided", "dtype", "swapped", "shape", "bit"]))
    if how == "copy":
        other = first.copy()
    elif how == "swapped":
        # Equal values in the other byte order: a distinct dtype object,
        # whose ``str`` differs unless its items are single bytes.
        other = first.astype(first.dtype.newbyteorder())
    elif how == "strided":
        wide = np.zeros(first.shape + (2,), dtype=first.dtype)
        wide[..., 1] = first
        other = wide[..., 1]  # non-contiguous, same values
    elif how == "dtype":
        other = first.view(_RETYPE[dtype])  # same bytes, other dtype
    elif how == "shape":
        other = first.reshape(1, -1) if first.ndim == 1 else first.reshape(-1)
    else:
        other = first.copy()
        raw = other.reshape(-1).view(np.uint8)
        if raw.size:
            raw[draw(st.integers(0, raw.size - 1))] ^= 1 << draw(st.integers(0, 7))
    return first, other


class _Tallied(Exception):
    """Raised in place of ``tally``: the vote left its unanimous path."""


def _agree_without_tally(first, other):
    """True when ``vote`` delivers two full copies without a tally."""
    original = voting.tally

    def no_tally(copies, tag):
        raise _Tallied

    voting.tally = no_tally
    try:
        copies = [full(0, first), full(1, other)]
        assert vote(copies, TAG) is copies[0]
        return True
    except _Tallied:
        return False
    finally:
        voting.tally = original


class TestAgreementWithoutDigestBytes:
    @settings(max_examples=400)
    @given(
        st.one_of(
            scalar_pairs(),
            array_pairs(),
            st.tuples(_SCALARS, array_pairs().map(lambda pair: pair[0])),
        )
    )
    def test_agrees_exactly_when_digest_bytes_do(self, pair):
        first, other = pair
        expected = digest_bytes(first) == digest_bytes(other)
        assert _agree_without_tally(first, other) == expected

    @pytest.mark.parametrize("first, other", [(True, 1), (1, 1.0), (0.0, -0.0), (1.0, True)])
    def test_lookalike_scalars_disagree(self, first, other):
        assert not _agree_without_tally(first, other)

    def test_every_nan_agrees(self):
        assert _agree_without_tally(float("nan"), -float("nan"))


_ANY_PAYLOAD = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), -float("nan"), np.float64("nan"), np.float64(-0.0)]),
    st.integers(),
    st.booleans(),
    st.binary(max_size=6),
    st.text(max_size=6),
    hnp.arrays(
        st.sampled_from(["float64", "float32", "int64", "int16", "uint8", "bool", "complex128"]),
        hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
    ),
)


@st.composite
def copy_drafts(draw):
    """A few payloads, then each copy: the same object, an equal one, or a digest."""
    pool = draw(st.lists(_ANY_PAYLOAD, min_size=1, max_size=3))
    return pool, draw(
        st.lists(
            st.tuples(
                st.sampled_from(["same", "same", "equal", "hash"]),
                st.integers(0, len(pool) - 1),
            ),
            min_size=1,
            max_size=5,
        )
    )


class TestEnvelopeVoteMatchesRecordVote:
    """Voting over the matched envelopes delivers what a tally over
    per-copy records (``eager_vote``, which the record-based vote
    matched) delivers: the same payload object, ``Status`` and counters."""

    @settings(max_examples=400, deadline=None)
    @given(copy_drafts())
    @example(([0.0, -0.0], [("same", 0), ("same", 1), ("same", 0)]))
    @example(([float("nan"), np.float64("nan")], [("same", 0), ("same", 1), ("equal", 0)]))
    @example(([1, True, 1.0], [("same", 0), ("same", 1), ("same", 2), ("hash", 0)]))
    @example(([np.arange(3.0), np.arange(3)], [("hash", 0), ("same", 0), ("same", 1)]))
    def test_same_payload_status_and_counters(self, draft):
        pool, drafts = draft
        peer = 3
        envelopes, records = [], []
        for sender, (how, index) in enumerate(drafts):
            payload = pool[index]
            if how == "equal":
                payload = pickle.loads(pickle.dumps(payload))
            if how == "hash":
                envelopes.append(hash_copy(sender, payload))
                records.append(_EagerCopy(sender, payload_digest(payload)))
            else:
                envelopes.append(full(sender, payload))
                records.append(_EagerCopy(sender, payload_digest(payload), payload, True))
        request = RecvSet(SimMPI(Environment(), size=1), peer, TAG)
        try:
            payload, unanimous, corrupt = eager_vote(records)
        except VotingError:
            with pytest.raises(VotingError):
                request._finalize(envelopes)
            return
        got, status = request._finalize(envelopes)
        assert got is payload
        assert status == Status(peer, TAG, payload_nbytes(payload))
        expected = {} if unanimous else {
            "votes_not_unanimous": 1, "corrupt_copies_voted_out": len(corrupt),
        }
        assert dict(request.runtime.counters) == expected


class TestPlanCopies:
    def test_all_to_all_everything_full(self):
        plan = plan_copies([0, 4], [1, 5], ALL_TO_ALL)
        assert set(plan.values()) == {"full"}
        assert len(plan) == 4

    def test_msg_plus_hash_one_carrier_per_receiver(self):
        senders = [0, 4, 8]
        receivers = [1, 5, 9]
        plan = plan_copies(senders, receivers, MSG_PLUS_HASH)
        for receiver in receivers:
            kinds = [plan[(s, receiver)] for s in senders]
            assert kinds.count("full") == 1
            assert kinds.count("hash") == len(senders) - 1

    def test_msg_plus_hash_unequal_spheres(self):
        plan = plan_copies([0], [1, 5], MSG_PLUS_HASH)
        # A single sender carries the payload for both receivers.
        assert plan[(0, 1)] == "full" and plan[(0, 5)] == "full"

    def test_partial_spheres(self):
        plan = plan_copies([0, 4], [1], MSG_PLUS_HASH)
        kinds = [plan[(0, 1)], plan[(4, 1)]]
        assert kinds.count("full") == 1 and kinds.count("hash") == 1

    def test_empty_senders_empty_plan(self):
        assert plan_copies([], [1, 2], ALL_TO_ALL) == {}

    def test_unknown_mode(self):
        with pytest.raises(VotingError):
            plan_copies([0], [1], "telepathy")

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([ALL_TO_ALL, MSG_PLUS_HASH]),
    )
    def test_plan_covers_all_pairs(self, senders, receivers, mode):
        sender_list = list(range(senders))
        receiver_list = list(range(100, 100 + receivers))
        plan = plan_copies(sender_list, receiver_list, mode)
        assert set(plan) == {(s, r) for s in sender_list for r in receiver_list}
