"""State canonicalization modulo node renaming."""

from repro.verify import Stepper, VerifyConfig, canonical_key


def run_ops(ops, **kw):
    cfg = VerifyConfig(n_nodes=2, n_blocks=1, extensions="m", **kw)
    return Stepper(cfg).run(ops)


def test_mirrored_sequences_canonicalize_identically():
    a = run_ops([("read", 0, 0), ("write", 1, 0)])
    b = run_ops([("read", 1, 0), ("write", 0, 0)])
    assert canonical_key(a) == canonical_key(b)
    # without symmetry reduction the two runs are distinct states
    assert canonical_key(a, symmetry=False) != canonical_key(
        b, symmetry=False
    )


def test_different_protocol_states_differ():
    a = run_ops([("read", 0, 0)])
    b = run_ops([("write", 0, 0)])
    assert canonical_key(a) != canonical_key(b)


def test_key_is_insensitive_to_history():
    """Two different op sequences reaching the same global state must
    collide -- that is the whole point of the dedup."""
    a = run_ops([("read", 0, 0), ("read", 0, 0)])
    b = run_ops([("read", 0, 0)])
    assert canonical_key(a) == canonical_key(b)


def test_lock_state_is_part_of_the_key():
    cfg = VerifyConfig(n_nodes=2, n_blocks=1, extensions="cw")
    held = Stepper(cfg).run([("lock", 0)])
    free = Stepper(cfg).run([("lock", 0), ("unlock", 0)])
    assert canonical_key(held) != canonical_key(free)


def test_wcache_contents_are_part_of_the_key():
    cfg = VerifyConfig(n_nodes=2, n_blocks=1, extensions="cw")
    idle = Stepper(cfg).run([("read", 0, 0)])
    dirty = Stepper(cfg).run([("read", 0, 0), ("write", 0, 0)])
    assert canonical_key(idle) != canonical_key(dirty)
