"""Static extension-metadata lint (``validate_registry``).

One test per violation class, each against a hand-built registry
mapping so the global registry (already linted at import time) stays
untouched.
"""

import pytest

from repro.core.extensions import (
    KNOWN_TRAITS,
    ExtensionInfo,
    RegistryError,
    registered_extensions,
    validate_registry,
)


def info(name, order, traits=()):
    return ExtensionInfo(
        name=name,
        order=order,
        description=f"test extension {name}",
        factory=lambda proto: None,
        enabled=lambda proto: False,
        traits=frozenset(traits),
    )


def registry(*infos):
    return {i.name.upper(): i for i in infos}


def test_live_registry_is_clean():
    validate_registry()


def test_clean_registry_passes():
    validate_registry(
        registry(info("A", 1, traits={"prefetch"}), info("B", 2))
    )


def test_rejects_duplicate_order():
    with pytest.raises(
        RegistryError, match=r"\['A', 'B'\] share pipeline order 7"
    ):
        validate_registry(registry(info("A", 7), info("B", 7)))


def test_rejects_unknown_trait():
    with pytest.raises(
        RegistryError, match=r"'A' declares unknown trait 'telepathy'"
    ):
        validate_registry(registry(info("A", 1, traits={"telepathy"})))


def test_reports_every_problem_at_once():
    bad = registry(
        info("A", 1, traits={"telepathy"}),
        info("B", 1),
    )
    with pytest.raises(RegistryError) as exc:
        validate_registry(bad)
    message = str(exc.value)
    assert "telepathy" in message
    assert "share pipeline order 1" in message


def test_known_traits_cover_builtin_declarations():
    for ext in registered_extensions():
        assert ext.traits <= KNOWN_TRAITS
