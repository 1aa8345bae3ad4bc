"""Unit tests for the factored-out M and CW policy modules."""

from repro.config import CompetitiveConfig, ProtocolConfig
from repro.core import competitive, migratory
from repro.core.competitive import CompetitivePolicy
from repro.core.directory import DirectoryEntry
from repro.core.messages import Message, MsgType
from repro.mem.slc import CacheLine
from repro.core.states import CacheState


def own_req(src=1, block=0):
    return Message(MsgType.OWN_REQ, src=src, dst=0, block=block)


def flush(src=1, block=0):
    return Message(MsgType.WC_FLUSH, src=src, dst=0, block=block)


M = ProtocolConfig.from_name("M")
CW = ProtocolConfig.from_name("CW")
CWM = ProtocolConfig.from_name("CW+M")
BASIC = ProtocolConfig()


class TestMigratoryDetection:
    def test_canonical_two_processor_pattern(self):
        entry = DirectoryEntry(sharers={1, 2}, last_writer=2)
        assert migratory.detects_on_ownership(M, entry, own_req(src=1))

    def test_requires_migratory_protocol(self):
        entry = DirectoryEntry(sharers={1, 2}, last_writer=2)
        assert not migratory.detects_on_ownership(BASIC, entry, own_req(1))

    def test_cw_disables_ownership_detection(self):
        entry = DirectoryEntry(sharers={1, 2}, last_writer=2)
        assert not migratory.detects_on_ownership(CWM, entry, own_req(1))

    def test_write_miss_is_not_a_sequence(self):
        entry = DirectoryEntry(sharers={1, 2}, last_writer=2)
        msg = Message(MsgType.RDX_REQ, src=1, dst=0, block=0)
        assert not migratory.detects_on_ownership(M, entry, msg)

    def test_needs_exactly_one_other_copy(self):
        assert not migratory.detects_on_ownership(
            M, DirectoryEntry(sharers={1}, last_writer=1), own_req(1)
        )
        assert not migratory.detects_on_ownership(
            M, DirectoryEntry(sharers={1, 2, 3}, last_writer=2), own_req(1)
        )

    def test_other_copy_must_be_last_writer(self):
        entry = DirectoryEntry(sharers={1, 2}, last_writer=5)
        assert not migratory.detects_on_ownership(M, entry, own_req(1))


class TestInterrogation:
    def test_candidate_rule(self):
        entry = DirectoryEntry(sharers={1, 2}, last_updater=2)
        assert migratory.wants_interrogation(CWM, entry, flush(src=1))

    def test_same_updater_is_not_a_candidate(self):
        entry = DirectoryEntry(sharers={1, 2}, last_updater=1)
        assert not migratory.wants_interrogation(CWM, entry, flush(src=1))

    def test_single_copy_is_not_a_candidate(self):
        entry = DirectoryEntry(sharers={1}, last_updater=2)
        assert not migratory.wants_interrogation(CWM, entry, flush(src=1))

    def test_needs_both_extensions(self):
        entry = DirectoryEntry(sharers={1, 2}, last_updater=2)
        assert not migratory.wants_interrogation(CW, entry, flush(src=1))
        assert not migratory.wants_interrogation(M, entry, flush(src=1))

    def test_confirmation_requires_unanimity(self):
        assert migratory.confirms_interrogation({2, 3}, {2, 3})
        assert not migratory.confirms_interrogation({2, 3}, {2})
        assert not migratory.confirms_interrogation(set(), set())


class TestReversion:
    def test_unmodified_transfer_reverts(self):
        assert migratory.reverts_on_unmodified_transfer(False)
        assert not migratory.reverts_on_unmodified_transfer(True)

    def test_second_reader_reverts(self):
        entry = DirectoryEntry(sharers={3})
        assert migratory.reverts_on_second_reader(entry, requester=1)
        assert not migratory.reverts_on_second_reader(entry, requester=3)
        assert not migratory.reverts_on_second_reader(
            DirectoryEntry(), requester=1
        )

    def test_exclusive_read_grant_gate(self):
        entry = DirectoryEntry(migratory=True)
        assert migratory.grants_exclusive_read(M, entry)
        assert not migratory.grants_exclusive_read(BASIC, entry)
        assert not migratory.grants_exclusive_read(
            M, DirectoryEntry(migratory=False)
        )


class TestCompetitivePolicy:
    def _line(self):
        return CacheLine(block=0, state=CacheState.SHARED)

    def test_fill_presets_tolerance(self):
        policy = CompetitivePolicy(CompetitiveConfig(threshold=1))
        line = self._line()
        policy.on_fill(line)
        assert line.comp_count == 1
        assert line.accessed_since_update

    def test_active_copy_survives_any_number_of_updates(self):
        policy = CompetitivePolicy(CompetitiveConfig(threshold=1))
        line = self._line()
        policy.on_fill(line)
        for _ in range(10):
            policy.on_local_access(line)
            assert policy.on_update(line) is False

    def test_idle_copy_drops_at_second_update(self):
        policy = CompetitivePolicy(CompetitiveConfig(threshold=1))
        line = self._line()
        policy.on_fill(line)
        assert policy.on_update(line) is False  # accessed at fill
        assert policy.on_update(line) is True   # idle since

    def test_threshold_four_tolerates_more(self):
        policy = CompetitivePolicy(CompetitiveConfig(threshold=4))
        line = self._line()
        policy.on_fill(line)
        drops = [policy.on_update(line) for _ in range(6)]
        assert drops == [False, False, False, False, True, True]

    def test_modifying_access_sets_modified_bit(self):
        policy = CompetitivePolicy(CompetitiveConfig())
        line = self._line()
        policy.on_local_access(line, modifying=True)
        assert line.modified_since_update
        policy.on_update(line)
        assert not line.modified_since_update


class TestExclusivityRule:
    def test_needs_a_copy(self):
        entry = DirectoryEntry(sharers=set(), migratory=True)
        assert not competitive.grants_exclusivity_on_flush(entry, 1)

    def test_plain_blocks_stay_shared(self):
        entry = DirectoryEntry(sharers={1})
        assert not competitive.grants_exclusivity_on_flush(entry, 1)

    def test_migratory_blocks_always_migrate(self):
        entry = DirectoryEntry(sharers={1}, migratory=True)
        assert competitive.grants_exclusivity_on_flush(entry, 1)
