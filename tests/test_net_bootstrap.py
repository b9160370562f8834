"""Bootstrap over announcement frames: round-trips, late joiners, keys.

The membership/key bootstrap is the part of the live runner that drives the
(previously unused) ``MembershipAnnouncement``/``KeyAnnouncement`` frames;
the directory is transport-free, so everything here runs without sockets.
"""

from __future__ import annotations

import pytest

from repro.crypto.backends import make_backend
from repro.exceptions import ProtocolError, WireFormatError
from repro.gossip.messages import (
    KeyAnnouncement,
    MembershipAnnouncement,
    deserialize,
)
from repro.net.bootstrap import (
    MembershipDirectory,
    key_announcement_for,
    verify_key_announcement,
)


class TestAnnouncementRoundTrip:
    def test_membership_announcement_round_trips(self):
        message = MembershipAnnouncement(node_id=12, online=True, cycle=7)
        assert deserialize(message.serialize()) == message

    def test_key_announcement_round_trips(self):
        message = KeyAnnouncement(modulus=2**128 + 51, degree=2, threshold=3,
                                  n_shares=8)
        assert deserialize(message.serialize()) == message

    def test_directory_announce_emits_decodable_frames(self):
        directory = MembershipDirectory()
        frame = directory.announce(3, online=True, cycle=0,
                                   address=("127.0.0.1", 9000))
        decoded = deserialize(frame)
        assert decoded == MembershipAnnouncement(node_id=3, online=True, cycle=0)
        assert directory.address_of(3) == ("127.0.0.1", 9000)


class TestMembershipDirectory:
    def test_feed_builds_routing_state(self):
        directory = MembershipDirectory()
        for node_id in range(4):
            frame = MembershipAnnouncement(node_id=node_id, online=True,
                                           cycle=0).serialize()
            directory.feed(frame, address=("127.0.0.1", 9000 + node_id % 2))
        assert len(directory) == 4
        assert directory.online_ids() == [0, 1, 2, 3]
        assert directory.address_of(2) == ("127.0.0.1", 9000)

    def test_leave_announcement_keeps_the_address(self):
        directory = MembershipDirectory()
        directory.announce(5, online=True, cycle=0,
                           address=("127.0.0.1", 9100))
        leave = MembershipAnnouncement(node_id=5, online=False,
                                       cycle=3).serialize()
        directory.feed(leave)
        assert directory.online_ids() == []
        assert directory.address_of(5) == ("127.0.0.1", 9100)

    def test_feed_rejects_non_membership_frames(self):
        directory = MembershipDirectory()
        key = KeyAnnouncement(modulus=77, degree=1, threshold=2,
                              n_shares=3).serialize()
        with pytest.raises(ProtocolError):
            directory.feed(key)

    def test_feed_rejects_corrupted_frames(self):
        directory = MembershipDirectory()
        frame = bytearray(MembershipAnnouncement(node_id=1, online=True,
                                                 cycle=0).serialize())
        frame[-1] ^= 0x01
        with pytest.raises(WireFormatError):
            directory.feed(bytes(frame))
        assert len(directory) == 0

    def test_unknown_node_queries_fail_loudly(self):
        directory = MembershipDirectory()
        with pytest.raises(ProtocolError):
            directory.address_of(9)
        directory.feed(MembershipAnnouncement(node_id=9, online=True,
                                              cycle=0).serialize())
        with pytest.raises(ProtocolError):
            directory.address_of(9)  # announced, but without an address


class TestLateJoinerCatchUp:
    def test_replaying_the_snapshot_reproduces_the_directory(self):
        """A late joiner catches up by replaying the membership gossip log."""
        seasoned = MembershipDirectory()
        for node_id in range(6):
            seasoned.announce(node_id, online=True, cycle=0,
                              address=("127.0.0.1", 9000 + node_id % 3))
        # Some churn history: node 4 left, node 1 left and rejoined.
        seasoned.feed(MembershipAnnouncement(node_id=4, online=False,
                                             cycle=2).serialize())
        seasoned.feed(MembershipAnnouncement(node_id=1, online=False,
                                             cycle=3).serialize())
        seasoned.feed(MembershipAnnouncement(node_id=1, online=True,
                                             cycle=5).serialize())

        late_joiner = MembershipDirectory()
        applied = late_joiner.catch_up(seasoned.snapshot())
        assert applied == 9
        assert len(late_joiner) == len(seasoned)
        assert late_joiner.online_ids() == seasoned.online_ids() == [0, 1, 2, 3, 5]
        for node_id in range(6):
            assert late_joiner.record(node_id) == seasoned.record(node_id)
        # The copy's own snapshot replays again (gossip is transitive).
        third = MembershipDirectory()
        third.catch_up(late_joiner.snapshot())
        assert third.record(1) == seasoned.record(1)


class TestKeyAnnouncements:
    def test_plain_backend_key_announcement_verifies(self):
        backend = make_backend("plain", threshold=2, n_shares=3)
        frame = key_announcement_for(backend).serialize()
        message = verify_key_announcement(frame, backend)
        assert message.threshold == 2
        assert message.n_shares == 3
        assert message.degree == 1

    def test_damgard_jurik_key_announcement_carries_the_modulus(self):
        backend = make_backend("damgard_jurik", key_bits=128, degree=2,
                               threshold=2, n_shares=3)
        announcement = key_announcement_for(backend)
        assert announcement.modulus == backend.public_key.n
        assert announcement.degree == 2
        frame = announcement.serialize()
        assert verify_key_announcement(frame, backend) == announcement

    def test_mismatched_key_is_refused(self):
        ours = make_backend("damgard_jurik", key_bits=128, threshold=2,
                            n_shares=3)
        theirs = make_backend("damgard_jurik", key_bits=128, threshold=2,
                              n_shares=3)
        frame = key_announcement_for(theirs).serialize()
        with pytest.raises(ProtocolError):
            verify_key_announcement(frame, ours)

    def test_membership_frame_is_not_a_key(self):
        backend = make_backend("plain", threshold=2, n_shares=3)
        frame = MembershipAnnouncement(node_id=0, online=True,
                                       cycle=0).serialize()
        with pytest.raises(ProtocolError):
            verify_key_announcement(frame, backend)
